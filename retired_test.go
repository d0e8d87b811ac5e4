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

// headRetired is the same measurement at the commit before build-once joins
// (abf113a, this test as it stood there), and joinCeiling what ISSUE 16 named
// beforehand for that change: 58.6 % of Q3's instructions were rehashing
// entries already placed, Q14's part build rehashed twice and copied p_type a
// byte at a time, Q12 and Q1 may only lose instructions (Q1 only its CHAR(1)
// key copies) and Q6, which has no hash table, must not move at all.
var headRetired = map[string]uint64{
	"Q1":  4909739,
	"Q3":  7102350,
	"Q6":  1039389,
	"Q12": 5675236,
	"Q14": 1011829,
}

var joinCeiling = map[string]uint64{
	"Q1":  4909739,
	"Q3":  3900000,
	"Q6":  1039389,
	"Q12": 5675236,
	"Q14": 930000,
}

// TestRetiredInstructions is the mechanism of the tier-2 back end, and of
// build-once joins after it, shown as a count: per query, the instructions
// the optimizing tier's code retires must repeat exactly from run to run, lie
// at least 25 % below the PR 12 parent's and not above the ceiling named for
// the join change (Q6 exactly on it).
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
		parent, head := parentRetired[id], headRetired[id]
		t.Logf("%-3s PR 12 %9d  PR 15 %9d  now %9d  %+.1f %% / %+.1f %%", id, parent, head, first,
			100*(float64(first)/float64(parent)-1), 100*(float64(first)/float64(head)-1))
		if float64(first) > 0.75*float64(parent) {
			t.Errorf("%s: %d instructions retired, more than 75 %% of the parent's %d", id, first, parent)
		}
		if first > joinCeiling[id] || (id == "Q6" && first != head) {
			t.Errorf("%s: %d instructions retired, ceiling %d (PR 15: %d)", id, first, joinCeiling[id], head)
		}
	}
}
