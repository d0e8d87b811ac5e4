package wasmdb_test

import (
	"strings"
	"sync"
	"testing"

	"wasmdb"
)

// autoDiff asserts backend-auto produces byte-identical results to every
// manual backend for src — cold (plan cache flushed first), warm (second
// run, feedback present), and with an explicit parallel worker request.
// A non-empty warm names the backend the warm decision must pick.
func autoDiff(t *testing.T, db *wasmdb.DB, src string, ordered bool, warm string) {
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
		if res.Stats.Auto == "" {
			t.Errorf("auto %s: no decision recorded on %q", label, src)
		}
		if got := formatSorted(t, res, ordered); got != want {
			t.Errorf("auto %s (chose %s) disagrees with volcano on %q:\n--- volcano ---\n%s\n--- auto ---\n%s",
				label, res.Stats.Auto, src, clip(want), clip(got))
		}
		return res.Stats
	}
	db.FlushPlanCache()
	check("cold", wasmdb.WithBackend(wasmdb.BackendAuto))
	if st := check("warm", wasmdb.WithBackend(wasmdb.BackendAuto)); warm != "" && st.Auto != warm {
		t.Errorf("warm choice %q on %q, want %q", st.Auto, src, warm)
	}
	check("parallel", wasmdb.WithBackend(wasmdb.BackendAuto), wasmdb.WithParallelism(2))
	check("cache-off", wasmdb.WithBackend(wasmdb.BackendAuto), wasmdb.WithPlanCache(false))
}

// TestAutoDifferential is the auto-tuning correctness oracle: whatever the
// autopilot picks, the bytes must match every manual backend. It also pins
// the warm crossover on SF 0.01: a tiny aggregation interprets, TPC-H Q1
// compiles adaptively.
func TestAutoDifferential(t *testing.T) {
	db := tpchDB(t)
	warmChoice := map[string]string{
		"Q1": "adaptive",
		"SELECT COUNT(*), SUM(s_acctbal) FROM supplier": "volcano",
	}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			src, ok := wasmdb.TPCHQuery(id)
			if !ok {
				t.Fatalf("unknown query %s", id)
			}
			autoDiff(t, db, src, strings.Contains(src, "ORDER BY"), warmChoice[id])
		})
	}
	t.Run("micro", func(t *testing.T) {
		for _, q := range []struct {
			src     string
			ordered bool
		}{
			// Tiny: lands in the volcano band.
			{"SELECT COUNT(*), SUM(s_acctbal) FROM supplier", false},
			// Mid: vectorized/liftoff band.
			{"SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment", false},
			// Large scan: adaptive band.
			{"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25", false},
			// Order-stable shapes the worker grant considers.
			{"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 25", true},
			{"SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_shipmode = 'AIR' ORDER BY l_orderkey, l_linenumber LIMIT 100", true},
			// Join + empty result edge.
			{"SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > 200000.0", false},
			{"SELECT l_orderkey FROM lineitem WHERE l_quantity < 0", false},
		} {
			autoDiff(t, db, q.src, q.ordered, warmChoice[q.src])
		}
	})
}

// TestAutoPreparedDecisionFlip pins the satellite: the decision for a
// prepared statement must resolve bound parameters first. The same statement
// flips between interpretation and adaptive compilation purely on the bound
// LIMIT value — in both bind orders, so the shared feedback slot cannot drag
// one binding's decision onto the other.
func TestAutoPreparedDecisionFlip(t *testing.T) {
	for _, order := range []string{"small-first", "large-first"} {
		order := order
		t.Run(order, func(t *testing.T) {
			db := tpchDB(t)
			stmt, err := db.Prepare("SELECT l_orderkey FROM lineitem LIMIT ?")
			if err != nil {
				t.Fatal(err)
			}
			run := func(limit int) string {
				t.Helper()
				res, err := stmt.QueryContext(nil, []any{limit}, wasmdb.WithBackend(wasmdb.BackendAuto))
				if err != nil {
					t.Fatal(err)
				}
				if res.NumRows() != limit {
					t.Fatalf("limit %d returned %d rows", limit, res.NumRows())
				}
				return res.Stats.Auto
			}
			binds := []int{4, 60000}
			if order == "large-first" {
				binds = []int{60000, 4}
			}
			choices := map[int]string{}
			for _, n := range binds {
				choices[n] = run(n)
			}
			if choices[4] != "volcano" {
				t.Errorf("bind 4: choice %q, want volcano", choices[4])
			}
			if choices[60000] != "adaptive" {
				t.Errorf("bind 60000: choice %q, want adaptive", choices[60000])
			}
			// Repeat with feedback present: decisions must hold steady.
			for _, n := range binds {
				if got := run(n); got != choices[n] {
					t.Errorf("bind %d warm: choice %q, want %q", n, got, choices[n])
				}
			}
		})
	}
}

// TestAutoMispredictionCorrected pins the feedback loop end to end: stacked
// always-true conjuncts make the planner estimate ~6% of customer, the cold
// decision interprets, and the warm decision — corrected by the observed
// cardinality on the feedback slot — compiles. DDL flushes the feedback, so
// the decision after a schema change is cold again.
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
	if cold.Auto != "vectorized" {
		t.Fatalf("cold choice %q, want vectorized (est-work misprediction setup broke)", cold.Auto)
	}
	warm := query()
	if warm.Auto == cold.Auto {
		t.Fatalf("warm choice %q did not change from cold", warm.Auto)
	}
	if warm.Auto != "liftoff" {
		t.Errorf("warm choice %q, want liftoff", warm.Auto)
	}
	if !strings.Contains(warm.AutoReason, "feedback-corrected") {
		t.Errorf("warm reason %q does not mention the correction", warm.AutoReason)
	}
	// The corrected decision is stable across further warm hits.
	if again := query(); again.Auto != warm.Auto {
		t.Errorf("second warm choice %q, want %q", again.Auto, warm.Auto)
	}
	// DDL invalidates the observed feedback along with the cached code.
	if err := db.Exec("CREATE TABLE autoflush (x INT)"); err != nil {
		t.Fatal(err)
	}
	if reset := query(); reset.Auto != cold.Auto {
		t.Errorf("post-DDL choice %q, want cold choice %q", reset.Auto, cold.Auto)
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
