package wasmdb_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wasmdb"
)

// autoDiff asserts backend-auto produces byte-identical results to every
// manual backend for src — cold (plan cache flushed first), warm (second
// run, feedback present), with an explicit parallel worker request and with
// the plan cache off — and that every decision compiles adaptively.
func autoDiff(t *testing.T, db *wasmdb.DB, src string, ordered bool) {
	t.Helper()
	ref, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendVolcano))
	if err != nil {
		t.Fatalf("volcano oracle: %v\nquery: %s", err, src)
	}
	want := formatSorted(t, ref, ordered)
	for _, b := range allBackends {
		res, err := db.Query(src, wasmdb.WithBackend(b))
		if err != nil {
			t.Fatalf("%v: %v\nquery: %s", b, err, src)
		}
		if got := formatSorted(t, res, ordered); got != want {
			t.Errorf("%v disagrees with volcano on %q:\n--- volcano ---\n%s\n--- %v ---\n%s",
				b, src, clip(want), b, clip(got))
		}
	}
	check := func(label string, opts ...wasmdb.Option) wasmdb.Stats {
		res, err := db.Query(src, opts...)
		if err != nil {
			t.Fatalf("auto %s: %v\nquery: %s", label, err, src)
		}
		if res.Stats.Auto != "adaptive" {
			t.Errorf("auto %s: choice %q on %q, want adaptive", label, res.Stats.Auto, src)
		}
		if got := formatSorted(t, res, ordered); got != want {
			t.Errorf("auto %s (chose %s) disagrees with volcano on %q:\n--- volcano ---\n%s\n--- auto ---\n%s",
				label, res.Stats.Auto, src, clip(want), clip(got))
		}
		return res.Stats
	}
	db.FlushPlanCache()
	check("cold", wasmdb.WithBackend(wasmdb.BackendAuto))
	check("warm", wasmdb.WithBackend(wasmdb.BackendAuto))
	check("parallel", wasmdb.WithBackend(wasmdb.BackendAuto), wasmdb.WithParallelism(2))
	check("cache-off", wasmdb.WithBackend(wasmdb.BackendAuto), wasmdb.WithPlanCache(false))
}

// TestAutoDifferential is the auto-tuning correctness oracle: whatever
// worker grant the autopilot sizes, the bytes must match every manual
// backend, and from the tiniest aggregation to TPC-H Q1 auto compiles.
func TestAutoDifferential(t *testing.T) {
	db := tpchDB(t)
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			src, ok := wasmdb.TPCHQuery(id)
			if !ok {
				t.Fatalf("unknown query %s", id)
			}
			autoDiff(t, db, src, strings.Contains(src, "ORDER BY"))
		})
	}
	t.Run("micro", func(t *testing.T) {
		for _, q := range []struct {
			src     string
			ordered bool
		}{
			// Tiny: 100 supplier rows.
			{"SELECT COUNT(*), SUM(s_acctbal) FROM supplier", false},
			// Mid: 1.5 k customer rows.
			{"SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment", false},
			// Large scan: 60 k lineitem rows.
			{"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25", false},
			// Order-stable shapes the worker grant considers.
			{"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 25", true},
			{"SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_shipmode = 'AIR' ORDER BY l_orderkey, l_linenumber LIMIT 100", true},
			// Join + empty result edge.
			{"SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > 200000.0", false},
			{"SELECT l_orderkey FROM lineitem WHERE l_quantity < 0", false},
		} {
			autoDiff(t, db, q.src, q.ordered)
		}
	})
}

// autoWork is the work estimate a decision reports in its reason,
// "est-work N rows[, feedback-corrected]".
func autoWork(t *testing.T, st wasmdb.Stats) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(st.AutoReason, "est-work %d rows", &n); err != nil {
		t.Fatalf("auto reason %q: %v", st.AutoReason, err)
	}
	return n
}

// TestAutoPreparedDecisionFlip pins that the decision for a prepared
// statement resolves bound parameters first: the same statement's work
// estimate follows the bound LIMIT value — in both bind orders, so the
// shared feedback slot cannot drag one binding's estimate onto the other.
func TestAutoPreparedDecisionFlip(t *testing.T) {
	for _, order := range []string{"small-first", "large-first"} {
		order := order
		t.Run(order, func(t *testing.T) {
			db := tpchDB(t)
			stmt, err := db.Prepare("SELECT l_orderkey FROM lineitem LIMIT ?")
			if err != nil {
				t.Fatal(err)
			}
			run := func(limit int) int {
				t.Helper()
				res, err := stmt.QueryContext(nil, []any{limit}, wasmdb.WithBackend(wasmdb.BackendAuto))
				if err != nil {
					t.Fatal(err)
				}
				if res.NumRows() != limit {
					t.Fatalf("limit %d returned %d rows", limit, res.NumRows())
				}
				if res.Stats.Auto != "adaptive" {
					t.Errorf("limit %d: choice %q, want adaptive", limit, res.Stats.Auto)
				}
				// Each run returns the rows its own binding's estimate
				// predicted, so feedback recorded under either binding
				// corrects nothing.
				if strings.Contains(res.Stats.AutoReason, "feedback-corrected") {
					t.Errorf("limit %d: reason %q, want the uncorrected estimate", limit, res.Stats.AutoReason)
				}
				return autoWork(t, res.Stats)
			}
			binds := []int{4, 60000}
			if order == "large-first" {
				binds = []int{60000, 4}
			}
			// The second pass runs with feedback present: the estimates must
			// stay apart, and read exactly as cold.
			var cold map[int]int
			for _, pass := range []string{"cold", "warm"} {
				work := map[int]int{}
				for _, n := range binds {
					work[n] = run(n)
				}
				if work[4] >= 100 || work[60000] < 60000 {
					t.Errorf("%s est-work: bind 4 %d, bind 60000 %d; want < 100 and >= 60000", pass, work[4], work[60000])
				}
				if cold == nil {
					cold = work
				} else if work[4] != cold[4] || work[60000] != cold[60000] {
					t.Errorf("warm est-work %v, want the cold estimates %v", work, cold)
				}
			}
		})
	}
}

// TestAutoMispredictionCorrected pins the feedback loop end to end: stacked
// always-true conjuncts make the planner estimate ~6% of customer, and the
// warm decision's work estimate — corrected by the observed cardinality on
// the feedback slot — grows. DDL flushes the feedback, so the decision after
// a schema change is cold again.
func TestAutoMispredictionCorrected(t *testing.T) {
	db := tpchDB(t)
	src := "SELECT c_custkey, c_acctbal FROM customer " +
		"WHERE c_acctbal > -99999 AND c_acctbal > -99998 AND c_acctbal > -99997 AND c_acctbal > -99996 " +
		"ORDER BY c_custkey"
	query := func() wasmdb.Stats {
		t.Helper()
		res, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendAuto))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	cold := query()
	if strings.Contains(cold.AutoReason, "feedback-corrected") {
		t.Fatalf("cold reason %q claims a correction", cold.AutoReason)
	}
	warm := query()
	if !strings.Contains(warm.AutoReason, "feedback-corrected") {
		t.Errorf("warm reason %q does not mention the correction", warm.AutoReason)
	}
	if c, w := autoWork(t, cold), autoWork(t, warm); w <= 2*c {
		t.Errorf("warm est-work %d, want well above cold %d (most of customer qualifies)", w, c)
	}
	// The corrected decision is stable across further warm hits.
	if again := query(); again.AutoReason != warm.AutoReason {
		t.Errorf("second warm reason %q, want %q", again.AutoReason, warm.AutoReason)
	}
	// DDL invalidates the observed feedback along with the cached code.
	if err := db.Exec("CREATE TABLE autoflush (x INT)"); err != nil {
		t.Fatal(err)
	}
	if reset := query(); reset.AutoReason != cold.AutoReason {
		t.Errorf("post-DDL reason %q, want cold reason %q", reset.AutoReason, cold.AutoReason)
	}
}

// TestAutoConcurrentWarmHits hammers one query shape from many goroutines so
// the per-execution feedback write-back races against concurrent decisions
// reading the same slot — run under -race, nothing may tear.
func TestAutoConcurrentWarmHits(t *testing.T) {
	db := tpchDB(t)
	src := "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25"
	// Prime: one cold run creates the cache entry and the feedback slot.
	if _, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendAuto)); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendAuto))
				if err != nil {
					errs <- err
					return
				}
				if res.NumRows() != 1 || res.Stats.Auto == "" {
					errs <- nil
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent warm hit: %v", err)
	}
}

// TestAutoExplainAnalyze checks the decision's EXPLAIN ANALYZE surface.
func TestAutoExplainAnalyze(t *testing.T) {
	db := tpchDB(t)
	out, err := db.ExplainAnalyze("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25", wasmdb.WithBackend(wasmdb.BackendAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "auto ") || !strings.Contains(out, "est-work") {
		t.Errorf("EXPLAIN ANALYZE missing the auto line:\n%s", out)
	}
}

// autoMixed is the repo benchmark's auto-mixed workload with seed 1: TPC-H
// at SF 0.02 and its ten query shapes, two per table, from 200 supplier
// rows to 120 k lineitem rows.
var autoMixed = []struct{ table, src string }{
	{"supplier", "SELECT COUNT(*), SUM(s_acctbal) FROM supplier WHERE s_acctbal > 4581.00"},
	{"supplier", "SELECT s_nationkey, COUNT(*), MAX(s_acctbal) FROM supplier GROUP BY s_nationkey ORDER BY s_nationkey"},
	{"customer", "SELECT COUNT(*), MIN(c_acctbal), MAX(c_acctbal) FROM customer WHERE c_mktsegment = 'FURNITURE'"},
	{"customer", "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal < 5347.00 AND c_nationkey < 14"},
	{"partsupp", "SELECT COUNT(*), SUM(ps_supplycost) FROM partsupp WHERE ps_availqty < 4581"},
	{"partsupp", "SELECT COUNT(*), MIN(ps_supplycost), MAX(ps_availqty) FROM partsupp WHERE ps_supplycost > 468.00"},
	{"orders", "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate >= DATE '1995-02-13'"},
	{"orders", "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority"},
	{"lineitem", "SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_discount >= 0.04 AND l_quantity < 26"},
	{"lineitem", "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-02-19' GROUP BY l_shipmode ORDER BY l_shipmode"},
}

func autoMixedDB(tb testing.TB) *wasmdb.DB {
	tb.Helper()
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.02, 1); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkAutoVersusBackends runs auto-mixed's shapes warm (plan cache
// filled, tier-up finished) on auto and on the four strategies auto could
// run: the two interpreters, baseline-only and adaptive compilation. ns/op
// and B/op per shape are the figures that decide whether auto should ever
// pick anything but adaptive.
func BenchmarkAutoVersusBackends(b *testing.B) {
	db := autoMixedDB(b)
	for _, backend := range []wasmdb.Backend{wasmdb.BackendAuto, wasmdb.BackendVolcano,
		wasmdb.BackendVectorized, wasmdb.BackendWasmLiftoff, wasmdb.BackendWasm} {
		for i, s := range autoMixed {
			b.Run(fmt.Sprintf("%v/%d-%s", backend, i, s.table), func(b *testing.B) {
				opt := wasmdb.WithBackend(backend)
				for _, warm := range [][]wasmdb.Option{{opt}, {opt, wasmdb.WithWaitOptimized()}} {
					if _, err := db.Query(s.src, warm...); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := db.Query(s.src, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
