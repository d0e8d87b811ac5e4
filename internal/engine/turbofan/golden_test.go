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

// goldenKernels are the three hot functions whose code is pinned as a listing
// per compiler — <name>.txt from the optimizing one, <name>_baseline.txt from
// the baseline one: what the query compiler generates for them at TPC-H SF
// 0.01, seed 42. The ceilings bound the emitted instruction counts (0 = none).
var goldenKernels = []struct {
	name, query, export       string
	maxInstrs, maxBaselineIns int
}{
	// The scan loop of Q6: five predicates over three columns, two global
	// accumulators. 52 instructions before the back end existed; 64 from the
	// stack-machine baseline the emitter replaced; 31 before value numbering
	// loaded each column once and made two range tests of four comparisons.
	{"q6_scan", "Q6", "pipeline_0", 27, 40},
	// The group-update path of Q1: key hashing, the probe of the generated
	// hash table, six aggregate slots updated in place (baseline was 298; 84
	// before value numbering).
	{"q1_group_update", "Q1", "pipeline_0", 77, 165},
	// The probe side of Q3's lineitem ⋈ orders hash join (baseline was 237;
	// 107 before value numbering).
	{"q3_join_probe", "Q3", "pipeline_2", 106, 135},
}

// kernelFunc returns one exported function of the module generated for a
// TPC-H query.
func kernelFunc(t *testing.T, query, export string) (*wasm.Module, *wasm.Func) {
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
	return m, &m.Funcs[int(idx)-m.NumImportedFuncs()]
}

// TestGoldenListings compares the disassembly of the three kernels, from
// either compiler, with the committed listings, so every change to the
// emitter, the optimizer or the back end shows up as a reviewable diff of the
// code it emits. Run with -update to accept.
func TestGoldenListings(t *testing.T) {
	for _, k := range goldenKernels {
		m, fn := kernelFunc(t, k.query, k.export)
		for _, c := range []struct {
			file     string
			baseline bool
			max      int
		}{
			{k.name + ".txt", false, k.maxInstrs},
			{k.name + "_baseline.txt", true, k.maxBaselineIns},
		} {
			compile := turbofan.Compile
			if c.baseline {
				compile = turbofan.CompileBaseline
			}
			code, err := compile(m, fn)
			if err != nil {
				t.Fatal(err)
			}
			got := code.String()
			if name := turbofan.OutsideBaseline(code); c.baseline && name != "" {
				t.Errorf("%s: the baseline compiler emitted %s, an optimizer-only form", c.file, name)
			}
			if c.max > 0 && code.NumInstrs() > c.max {
				t.Errorf("%s: %d instructions emitted, ceiling is %d", c.file, code.NumInstrs(), c.max)
			}
			path := filepath.Join("testdata", c.file)
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
				t.Errorf("%s differs from the golden listing (rerun with -update to accept):\n%s", c.file, lineDiff(string(want), got))
			}
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
