package turbofan_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasmdb/internal/core"
	"wasmdb/internal/engine/turbofan"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/wasm"
)

// goldenKernels are the three hot functions whose tier-2 code is pinned as a
// listing: what the query compiler generates for them at TPC-H SF 0.01,
// seed 42. maxInstrs is a ceiling on the emitted instruction count (0 = none).
var goldenKernels = []struct {
	file, query, export string
	maxInstrs           int
}{
	// The scan loop of Q6: five predicates over three columns, two global
	// accumulators. 52 instructions before the back end existed.
	{"q6_scan.txt", "Q6", "pipeline_0", 32},
	// The group-update path of Q1: key hashing, the probe of the generated
	// hash table, six aggregate slots updated in place.
	{"q1_group_update.txt", "Q1", "pipeline_0", 0},
	// The probe side of Q3's lineitem ⋈ orders hash join.
	{"q3_join_probe.txt", "Q3", "pipeline_2", 0},
}

// compileKernel returns the tier-2 code of one exported function of the
// module generated for a TPC-H query.
func compileKernel(t *testing.T, query, export string) *turbofan.Code {
	t.Helper()
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.ParseSelect(tpch.Queries[query])
	if err != nil {
		t.Fatal(err)
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := core.Compile(q, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wasm.Decode(cq.Bin)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := m.ExportedFunc(export)
	if !ok {
		t.Fatalf("%s exports no %s", query, export)
	}
	code, err := turbofan.Compile(m, &m.Funcs[int(idx)-m.NumImportedFuncs()])
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestGoldenListings compares the disassembly of the three kernels with the
// committed listings, so every change to the optimizer or the back end shows
// up as a reviewable diff of the code it emits. Run with -update to accept.
func TestGoldenListings(t *testing.T) {
	for _, k := range goldenKernels {
		code := compileKernel(t, k.query, k.export)
		got := code.String()
		if k.maxInstrs > 0 && code.NumInstrs() > k.maxInstrs {
			t.Errorf("%s: %d instructions emitted, ceiling is %d", k.file, code.NumInstrs(), k.maxInstrs)
		}
		path := filepath.Join("testdata", k.file)
		if *turbofan.Update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden listing (rerun with -update to accept):\n%s", k.file, lineDiff(string(want), got))
		}
	}
}

// lineDiff renders the first lines at which two listings differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
			if shown++; shown == 10 {
				b.WriteString("...\n")
				break
			}
		}
	}
	return b.String()
}
