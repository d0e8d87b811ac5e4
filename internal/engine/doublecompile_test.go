package engine_test

import (
	"testing"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
)

// TestDoubleCompileCount measures, and logs, how many functions a cold run
// compiles on tier 1 and then again on tier 2: a function queued for tier-up
// on the first run whose first call comes before its tier-2 code lands. It
// runs the five TPC-H queries cold at SF 0.01 (seed 1) on one and on two
// workers; the one-worker rows are one cold adhoc-large round. The count
// depends on when the background compile finishes, so the test checks only
// that it is consistent; read the figures with -v.
func TestDoubleCompileCount(t *testing.T) {
	cat, err := tpch.Generate(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Tier: engine.TierAdaptive})
	for _, workers := range []int{1, 2} {
		var sumFuncs, sumInstrs, sumLiftoff, sumLiftoffInstrs int
		for _, id := range tpch.QueryIDs {
			stmt, err := sql.ParseSelect(tpch.Queries[id])
			if err != nil {
				t.Fatal(err)
			}
			q, err := sema.Analyze(stmt, cat)
			if err != nil {
				t.Fatal(err)
			}
			root, err := plan.Build(q)
			if err != nil {
				t.Fatal(err)
			}
			cq, err := core.Compile(q, root)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := eng.Compile(cq.Bin)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := core.Execute(cq, q, eng, core.ExecOptions{Precompiled: mod, Parallelism: workers, DrainBackground: true}); err != nil {
				t.Fatal(err)
			}
			funcs, instrs := engine.DoubleCompiled(mod)
			st := mod.Stats()
			if funcs < 0 || funcs > st.LiftoffFuncs || instrs < 0 || instrs > st.LiftoffInstrs || (funcs == 0) != (instrs == 0) {
				t.Errorf("%s, %d workers: %d functions, %d instrs compiled twice of %d functions, %d instrs on tier 1",
					id, workers, funcs, instrs, st.LiftoffFuncs, st.LiftoffInstrs)
			}
			t.Logf("%-3s %d worker(s): %d of %d tier-1 functions compiled again on tier 2, %d of %d tier-1 instrs",
				id, workers, funcs, st.LiftoffFuncs, instrs, st.LiftoffInstrs)
			sumFuncs, sumInstrs = sumFuncs+funcs, sumInstrs+instrs
			sumLiftoff, sumLiftoffInstrs = sumLiftoff+st.LiftoffFuncs, sumLiftoffInstrs+st.LiftoffInstrs
		}
		t.Logf("all %d worker(s): %d of %d tier-1 functions, %d of %d tier-1 instrs compiled twice",
			workers, sumFuncs, sumLiftoff, sumInstrs, sumLiftoffInstrs)
	}
}
