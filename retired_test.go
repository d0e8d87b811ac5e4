//go:build turbofan_count

package wasmdb_test

import (
	"fmt"
	"strings"
	"testing"

	"wasmdb"
	"wasmdb/internal/engine/turbofan"
)

// Instructions dispatched by the engine's one run loop for one serial
// execution of each query at TPC-H SF 0.01, seed 42, tier forced, plan cache
// off. Both tiers' code runs in that loop, so the counter of count_on.go sees
// either.
//
// pr12Retired is the optimizing tier before it had a back end (PR 12,
// f7e1549; EXPERIMENTS.md, "Ledger: tier-2 back end", says how to reproduce
// it there), pr16Retired the optimizing tier at the parent of the shared
// emitter (7e8ac5c, this test as it stood there). The baseline tier was a
// stack machine with a loop of its own until then; the same counter patched
// into that loop gave pr16Baseline.
var (
	pr12Retired  = map[string]uint64{"Q1": 9271190, "Q3": 11711859, "Q6": 2134420, "Q12": 10221720, "Q14": 1995271}
	pr16Retired  = map[string]uint64{"Q1": 4909587, "Q3": 2021370, "Q6": 1039389, "Q12": 5657514, "Q14": 646766}
	pr16Baseline = map[string]uint64{"Q1": 14298097, "Q3": 5149051, "Q6": 2681350, "Q12": 15584492, "Q14": 1739741}
)

// retiredQueries are the measured queries: the five TPC-H ones and two CHAR
// GROUP BY shapes of the benchmark's auto-mixed workload.
var retiredQueries = []struct{ id, src string }{
	{"Q1", ""}, {"Q3", ""}, {"Q6", ""}, {"Q12", ""}, {"Q14", ""},
	{"shipmode", "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-04-01' GROUP BY l_shipmode ORDER BY l_shipmode"},
	{"priority", "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority"},
}

// charByteLoop holds both tiers' counts at 7d3362a, before CHAR equality, IN
// lists and CHAR key hashing and comparison were compiled to straight-line
// 8/4/2/1-byte loads: a CHAR key was hashed by a byte loop behind a
// trailing-space scan and compared, like every CHAR =, <> and IN, by a called
// byte loop (strcmp_N_M).
var charByteLoop = map[wasmdb.Backend]map[string]uint64{
	wasmdb.BackendWasmTurbofan: {"Q1": 4848048, "Q3": 1919500, "Q6": 1039389, "Q12": 5645293, "Q14": 639577, "shipmode": 7327145, "priority": 2137512},
	wasmdb.BackendWasmLiftoff:  {"Q1": 6665122, "Q3": 2415426, "Q6": 1160390, "Q12": 6890781, "Q14": 784115, "shipmode": 10606935, "priority": 3092656},
}

// passesInTier2 holds both tiers' counts at e371abf, where tier 2 still
// folded constants, fused compare-and-branch pairs and threaded jumps in
// passes of its own, in two rounds, and tier 1 did none of it. The counts
// there were those of the change that compiled CHAR at word width.
var passesInTier2 = map[wasmdb.Backend]map[string]uint64{
	wasmdb.BackendWasmTurbofan: {"Q1": 3093478, "Q3": 1878151, "Q6": 1039389, "Q12": 2865522, "Q14": 631508, "shipmode": 1657569, "priority": 475277},
	wasmdb.BackendWasmLiftoff:  {"Q1": 4245052, "Q3": 2359749, "Q6": 1160390, "Q12": 3078583, "Q14": 775514, "shipmode": 2122703, "priority": 575958},
}

// beforeValueNumbering holds tier 2's counts at 5932947, the parent of value
// numbering (tier 2 then selected forms, removed dead code and rotated loops,
// and loaded a column as often as the query named it). Tier 1's were what
// they are now.
var beforeValueNumbering = map[string]uint64{"Q1": 3093475, "Q3": 1878266, "Q6": 1039389, "Q12": 2865523, "Q14": 631508, "shipmode": 1657564, "priority": 475275}

// retiredCeiling: neither tier may retire more. Tier 1's are its counts once
// the emitter folded and fused for both tiers. Tier 2's are its counts once
// value numbering computed each row's loads and expressions once and fused
// the two-sided range tests (beforeValueNumbering: 9 508 161 over the five
// TPC-H queries; now 8 167 440).
var retiredCeiling = map[wasmdb.Backend]map[string]uint64{
	wasmdb.BackendWasmTurbofan: {"Q1": 2730395, "Q3": 1875521, "Q6": 797388, "Q12": 2314138, "Q14": 449998, "shipmode": 1657483, "priority": 475230},
	wasmdb.BackendWasmLiftoff:  {"Q1": 4062473, "Q3": 2028580, "Q6": 1099885, "Q12": 2959704, "Q14": 698777, "shipmode": 1920168, "priority": 529452},
}

// TestRetiredInstructions shows the code quality of both tiers as a count:
// per query and tier, the instructions retired must repeat exactly from run
// to run and stay at or below the recorded ceiling; the optimizing tier's
// must also lie at least 25 % below the PR 12 parent's on TPC-H, and each
// tier's at least 70 % below its byte-loop count on the two CHAR GROUP BY
// shapes, where hashing and comparing the key was most of the work.
// It needs the counter compiled into the run loop:
//
//	go test -tags turbofan_count -run TestRetiredInstructions -v .
func TestRetiredInstructions(t *testing.T) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	measure := func(src string, backend wasmdb.Backend) (uint64, []turbofan.OpCount) {
		turbofan.ResetRetired()
		if _, err := db.Query(src, wasmdb.WithBackend(backend), wasmdb.WithPlanCache(false)); err != nil {
			t.Fatal(err)
		}
		return turbofan.Retired(), turbofan.Dispatched()
	}
	for _, q := range retiredQueries {
		id, src := q.id, q.src
		_, tpch := pr16Retired[id]
		if tpch {
			src, _ = wasmdb.TPCHQuery(id)
		}
		var now [2]uint64
		for i, backend := range []wasmdb.Backend{wasmdb.BackendWasmLiftoff, wasmdb.BackendWasmTurbofan} {
			first, ops := measure(src, backend)
			second, _ := measure(src, backend)
			logOpHistogram(t, id, i+1, first, ops)
			if first != second {
				t.Errorf("%s on %v: retired count does not repeat: %d then %d", id, backend, first, second)
			}
			if ceiling := retiredCeiling[backend][id]; first > ceiling {
				t.Errorf("%s on %v: %d instructions retired, ceiling %d", id, backend, first, ceiling)
			}
			if before := charByteLoop[backend][id]; !tpch && float64(first) > 0.3*float64(before) {
				t.Errorf("%s on %v: %d instructions retired, not 70 %% below the byte-loop count %d", id, backend, first, before)
			}
			now[i] = first
		}
		for _, b := range []struct {
			name string
			m    map[wasmdb.Backend]map[string]uint64
		}{{"byte-loop CHAR", charByteLoop}, {"passes in tier 2", passesInTier2}} {
			before := [2]uint64{b.m[wasmdb.BackendWasmLiftoff][id], b.m[wasmdb.BackendWasmTurbofan][id]}
			t.Logf("%-8s %-16s → now:  tier 1 %9d → %9d  %+.1f %%   tier 2 %9d → %9d  %+.3f %%",
				id, b.name, before[0], now[0], 100*(float64(now[0])/float64(before[0])-1),
				before[1], now[1], 100*(float64(now[1])/float64(before[1])-1))
		}
		t.Logf("%-8s tier 2 before value numbering %9d → now %9d  %+.1f %%", id, beforeValueNumbering[id], now[1],
			100*(float64(now[1])/float64(beforeValueNumbering[id])-1))
		if !tpch {
			continue
		}
		t.Logf("%-8s tier 1: PR 16 %9d  now %9d  %+.1f %%   tier 2: PR 12 %9d  PR 16 %9d  now %9d  %+.1f %%   tier 1 / tier 2 %.2f",
			id, pr16Baseline[id], now[0], 100*(float64(now[0])/float64(pr16Baseline[id])-1),
			pr12Retired[id], pr16Retired[id], now[1], 100*(float64(now[1])/float64(pr16Retired[id])-1),
			float64(now[0])/float64(now[1]))
		if float64(now[1]) > 0.75*float64(pr12Retired[id]) {
			t.Errorf("%s: %d instructions retired by tier 2, more than 75 %% of PR 12's %d", id, now[1], pr12Retired[id])
		}
	}
}

// logOpHistogram prints one query's 20 most frequent opcodes on one tier and
// the share of its instructions that access memory: the profile a fused
// instruction is chosen from. In the run loop a memory access is a page-table
// index, a length test and the load or store, with no call.
func logOpHistogram(t *testing.T, id string, tier int, total uint64, ops []turbofan.OpCount) {
	t.Helper()
	var mem uint64
	for _, c := range ops {
		if c.Memory {
			mem += c.N
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s tier %d: %d retired, memory ops %.1f %%; top 20:", id, tier, total, 100*float64(mem)/float64(total))
	for i, c := range ops[:min(20, len(ops))] {
		if i%5 == 0 {
			b.WriteString("\n        ")
		}
		fmt.Fprintf(&b, " %-20s %5.1f %%", c.Name, 100*float64(c.N)/float64(total))
	}
	t.Log(b.String())
}
