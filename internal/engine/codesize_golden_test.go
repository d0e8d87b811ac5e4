package engine_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wasmdb/internal/core"
	"wasmdb/internal/engine/turbofan"
	"wasmdb/internal/tpch"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/wasm"
)

var update = flag.Bool("update", false, "rewrite testdata/code_sizes.txt")

// codeSizeQueries are the measured queries of the retired-instruction test:
// the five TPC-H ones and the two CHAR GROUP BY shapes of the benchmark's
// auto-mixed workload.
var codeSizeQueries = []struct{ id, src string }{
	{"Q1", tpch.Queries["Q1"]}, {"Q3", tpch.Queries["Q3"]}, {"Q6", tpch.Queries["Q6"]},
	{"Q12", tpch.Queries["Q12"]}, {"Q14", tpch.Queries["Q14"]},
	{"shipmode", "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-04-01' GROUP BY l_shipmode ORDER BY l_shipmode"},
	{"priority", "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority"},
}

// TestCodeSizeGolden records, for every function of the measured queries'
// modules in the ad-hoc and the HyPer-like style (TPC-H SF 0.01, seed 42) and
// of the vectorized baseline's kernel module, which tier 2 compiles at start-up,
// how many instructions each compiler emits for it. A change to either
// compiler shows up as a diff of testdata/code_sizes.txt, function by
// function, which says whether any function grew. Run with -update to accept.
func TestCodeSizeGolden(t *testing.T) {
	const path = "testdata/code_sizes.txt"
	qs := planQueries(t)
	var got strings.Builder
	got.WriteString("# style query function tier1 tier2 — regenerate with go test ./internal/engine -run CodeSizeGolden -update\n")
	sizes := func(prefix string, bin []byte) {
		m, err := wasm.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(m.Funcs))
		for _, e := range m.Exports {
			if fi := int(e.Index) - m.NumImportedFuncs(); e.Kind == wasm.ExternFunc && fi >= 0 {
				names[fi] = e.Name
			}
		}
		for fi := range m.Funcs {
			fn := &m.Funcs[fi]
			lo, err := turbofan.CompileBaseline(m, fn)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := turbofan.Compile(m, fn)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %d:%s %d %d\n", prefix, fi, names[fi], lo.NumInstrs(), tf.NumInstrs())
		}
	}
	for _, s := range styles {
		for _, q := range qs {
			cq, err := core.CompileStyled(q.q, q.root, s.style)
			if err != nil {
				t.Fatal(err)
			}
			sizes(s.name+" "+q.id, cq.Bin)
		}
	}
	sizes("vectorized kernels", vectorized.KernelBinary())
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i, l := range gotLines {
		if i >= len(wantLines) || l != wantLines[i] {
			t.Errorf("code size changed (or the corpus did): %s", l)
		}
	}
	if len(wantLines) > len(gotLines) {
		t.Errorf("%d functions fewer than recorded", len(wantLines)-len(gotLines))
	}
}
