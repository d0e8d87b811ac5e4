//go:build turbofan_count

package wasmdb_test

import (
	"testing"

	"wasmdb"
	"wasmdb/internal/engine/turbofan"
)

// parentRetired is what the same measurement gave at the commit before the
// tier-2 back end (PR 12, f7e1549): instructions dispatched by turbofan code
// for one serial execution of each query at TPC-H SF 0.01, seed 42, tier
// forced, plan cache off. To reproduce them, check out f7e1549, add to
// internal/engine/turbofan a file declaring `var retired uint64` with the
// ResetRetired and Retired functions of count_on.go, insert the one line
// `retired++` after `t := ins[pc]` at the top of the loop in run.go, and run
// this test without its build tag. ISSUE 14 quotes lower parent figures (Q1
// 8 483 585 … Q6 2 073 920) from a prototype whose counter did not see every
// dispatch — Q6's gap is exactly its 60 500 unconditional jumps, one per row;
// EXPERIMENTS.md ("Ledger: tier-2 back end") has both sets side by side.
var parentRetired = map[string]uint64{
	"Q1":  9271190,
	"Q3":  11711859,
	"Q6":  2134420,
	"Q12": 10221720,
	"Q14": 1995271,
}

// TestRetiredInstructions is the mechanism of the tier-2 back end shown as a
// count: per query, the instructions the optimizing tier's code retires must
// repeat exactly from run to run and lie at least 25 % below the parent's.
// It needs the counter compiled into the run loop:
//
//	go test -tags turbofan_count -run TestRetiredInstructions -v .
func TestRetiredInstructions(t *testing.T) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	measure := func(src string) uint64 {
		turbofan.ResetRetired()
		if _, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendWasmTurbofan), wasmdb.WithPlanCache(false)); err != nil {
			t.Fatal(err)
		}
		return turbofan.Retired()
	}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		src, _ := wasmdb.TPCHQuery(id)
		first, second := measure(src), measure(src)
		if first != second {
			t.Errorf("%s: retired count does not repeat: %d then %d", id, first, second)
		}
		parent := parentRetired[id]
		t.Logf("%-3s parent %9d  now %9d  %+.1f %%", id, parent, first, 100*(float64(first)/float64(parent)-1))
		if float64(first) > 0.75*float64(parent) {
			t.Errorf("%s: %d instructions retired, more than 75 %% of the parent's %d", id, first, parent)
		}
	}
}
