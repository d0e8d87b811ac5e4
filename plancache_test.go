package wasmdb_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wasmdb"
	"wasmdb/internal/obs"
)

// planCacheCorpus lists query shapes whose literals the tests vary: each
// entry is a format string and a set of literal tuples. Cached execution
// (parameterized, shared module) must agree bit-for-bit with uncached
// execution (literals baked) for every tuple.
var planCacheCorpus = []struct {
	name    string
	format  string
	ordered bool
	args    [][]any
}{
	{
		name:   "filter-agg",
		format: "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < %d",
		args:   [][]any{{24}, {30}, {1}, {50}},
	},
	{
		name:   "range-dates",
		format: "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s'",
		args:   [][]any{{"1994-01-01", "1995-01-01"}, {"1995-06-01", "1996-06-01"}},
	},
	{
		name:   "like",
		format: "SELECT COUNT(*) FROM orders WHERE o_orderpriority LIKE '%%%s%%'",
		args:   [][]any{{"URGENT"}, {"HIGH"}, {"LOW"}},
	},
	{
		name:    "group-order-limit",
		format:  "SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity > %d GROUP BY l_returnflag ORDER BY l_returnflag LIMIT %d",
		ordered: true,
		args:    [][]any{{10, 2}, {40, 3}, {0, 1}},
	},
	{
		name:   "join",
		format: "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > %d",
		args:   [][]any{{1000}, {150000}},
	},
}

// TestPlanCacheDifferential runs every corpus shape across its literal
// variants, twice each with the cache on (second run is a hit) and once
// with the cache off, and requires identical results — the differential
// oracle for the parameterized code path.
func TestPlanCacheDifferential(t *testing.T) {
	db := tpchDB(t)
	for _, c := range planCacheCorpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, args := range c.args {
				src := fmt.Sprintf(c.format, args...)
				ref, err := db.Query(src, wasmdb.WithPlanCache(false))
				if err != nil {
					t.Fatalf("uncached: %v\nquery: %s", err, src)
				}
				want := formatSorted(t, ref, c.ordered)
				for run := 0; run < 2; run++ {
					res, err := db.Query(src)
					if err != nil {
						t.Fatalf("cached run %d: %v\nquery: %s", run, err, src)
					}
					if got := formatSorted(t, res, c.ordered); got != want {
						t.Errorf("cached run %d disagrees on %q:\n--- uncached ---\n%s\n--- cached ---\n%s",
							run, src, clip(want), clip(got))
					}
				}
			}
		})
	}
	st := db.PlanCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("corpus recorded no cache traffic: %+v", st)
	}
}

// TestPlanCacheTPCHDifferential: the reproduced TPC-H queries, cached vs
// uncached — same module shapes the paper benchmarks, now through the
// parameterized path.
func TestPlanCacheTPCHDifferential(t *testing.T) {
	db := tpchDB(t)
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			src, _ := wasmdb.TPCHQuery(id)
			ref, err := db.Query(src, wasmdb.WithPlanCache(false))
			if err != nil {
				t.Fatal(err)
			}
			want := formatSorted(t, ref, true)
			for run := 0; run < 2; run++ {
				res, err := db.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				if got := formatSorted(t, res, true); got != want {
					t.Errorf("run %d: cached result differs from uncached:\n%s\nvs\n%s",
						run, clip(got), clip(want))
				}
			}
		})
	}
}

// TestPlanCacheHitSkipsCompilation is the headline behavior: a repeated
// query shape with a different literal records a cache-hit event, no
// codegen or engine-compile spans, and zero compile time in Stats. A cold
// run that waited for its optimizing compile leaves a fully tiered-up
// module, so the hit runs every morsel on tier 2.
func TestPlanCacheHitSkipsCompilation(t *testing.T) {
	db := tpchDB(t)
	if _, err := db.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24", wasmdb.WithWaitOptimized()); err != nil {
		t.Fatal(err)
	}
	tr := wasmdb.NewTrace()
	res, err := db.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30", wasmdb.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}

	hit := false
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvPlanCache {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "result" && a.Str == "hit" {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatalf("no plan-cache hit event on repeated query shape; events: %+v", tr.Events())
	}
	for _, span := range []string{
		obs.SpanCodegen, obs.SpanDecode, obs.SpanValidate, obs.SpanLiftoff, obs.SpanTurbofan,
	} {
		if d := tr.Dur(span); d != 0 {
			t.Errorf("hit recorded a %q span (%v); compilation should be skipped entirely", span, d)
		}
	}
	if res.Stats.Liftoff != 0 || res.Stats.Turbofan != 0 {
		t.Errorf("hit reports compile time: liftoff=%v turbofan=%v", res.Stats.Liftoff, res.Stats.Turbofan)
	}
	if res.Stats.MorselsLiftoff != 0 || res.Stats.MorselsTurbofan == 0 {
		t.Errorf("hit not fully on the optimizing tier: morsels liftoff=%d turbofan=%d",
			res.Stats.MorselsLiftoff, res.Stats.MorselsTurbofan)
	}
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("stats recorded no hit: %+v", st)
	}
}

// TestPlanCacheExplainAnalyze: the rendered profile names the cache
// outcome, with the tier the cached module dispatches.
func TestPlanCacheExplainAnalyze(t *testing.T) {
	db := tpchDB(t)
	out, err := db.ExplainAnalyze("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan cache") || !strings.Contains(out, "miss") {
		t.Errorf("first EXPLAIN ANALYZE does not report a miss:\n%s", out)
	}
	out, err = db.ExplainAnalyze("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 31")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan cache") || !strings.Contains(out, "hit (fingerprint=") {
		t.Errorf("second EXPLAIN ANALYZE does not report a hit:\n%s", out)
	}
}

// TestPlanCacheExplainAnalyzeForcedTier: a hit on a forced tier's module is
// labeled with the one tier that module runs — a liftoff-only module never
// counts as optimized, however settled its (empty) tier-up queue is.
func TestPlanCacheExplainAnalyzeForcedTier(t *testing.T) {
	db := tpchDB(t)
	for backend, tier := range map[wasmdb.Backend]string{
		wasmdb.BackendWasmLiftoff: "liftoff", wasmdb.BackendWasmTurbofan: "turbofan",
	} {
		var out string
		for _, q := range []string{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24", "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 31"} {
			var err error
			if out, err = db.ExplainAnalyze(q, wasmdb.WithBackend(backend)); err != nil {
				t.Fatal(err)
			}
		}
		if want := ", tier=" + tier + ")"; !strings.Contains(out, "hit (fingerprint=") || !strings.Contains(out, want) {
			t.Errorf("%v: the hit is not labeled %q:\n%s", backend, want, out)
		}
	}
}

// TestPreparedVsAdhoc: Stmt.Query across argument sets must agree with the
// equivalent literal query run cache-off, for numeric, CHAR, date, and
// LIMIT ? parameters.
func TestPreparedVsAdhoc(t *testing.T) {
	db := tpchDB(t)
	cases := []struct {
		name, prepared, adhoc string
		args                  []any
	}{
		{
			name:     "numeric",
			prepared: "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ?",
			adhoc:    "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24",
			args:     []any{24},
		},
		{
			name:     "char",
			prepared: "SELECT COUNT(*) FROM lineitem WHERE l_shipmode = ?",
			adhoc:    "SELECT COUNT(*) FROM lineitem WHERE l_shipmode = 'MAIL'",
			args:     []any{"MAIL"},
		},
		{
			name:     "date",
			prepared: "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= ?",
			adhoc:    "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'",
			args:     []any{"1995-01-01"},
		},
		{
			name:     "limit",
			prepared: "SELECT l_orderkey FROM lineitem WHERE l_quantity > ? ORDER BY l_orderkey LIMIT ?",
			adhoc:    "SELECT l_orderkey FROM lineitem WHERE l_quantity > 45 ORDER BY l_orderkey LIMIT 7",
			args:     []any{45, 7},
		},
		{
			name:     "having",
			prepared: "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) > ?",
			adhoc:    "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) > 100",
			args:     []any{100},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			stmt, err := db.Prepare(c.prepared)
			if err != nil {
				t.Fatal(err)
			}
			if stmt.NumParams() != len(c.args) {
				t.Fatalf("NumParams = %d, want %d", stmt.NumParams(), len(c.args))
			}
			ref, err := db.Query(c.adhoc, wasmdb.WithPlanCache(false))
			if err != nil {
				t.Fatal(err)
			}
			want := formatSorted(t, ref, true)
			for run := 0; run < 2; run++ {
				res, err := stmt.Query(c.args...)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := formatSorted(t, res, true); got != want {
					t.Errorf("run %d: prepared result differs:\n%s\nvs adhoc\n%s", run, clip(got), clip(want))
				}
			}
		})
	}

	// Error surfaces: wrong arg count, and placeholders in ad-hoc queries.
	stmt, err := db.Prepare("SELECT COUNT(*) FROM lineitem WHERE l_quantity < ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil {
		t.Error("missing argument not rejected")
	}
	if _, err := db.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < ?"); err == nil {
		t.Error("ad-hoc query with placeholder not rejected")
	}
}

// TestPlanCacheDDLInvalidation: DDL must flush the cache and queries after
// it must recompile against the new schema.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO t VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM t WHERE a < 5"); err != nil {
			t.Fatal(err)
		}
	}
	before := db.PlanCacheStats()
	if before.Hits == 0 || before.Entries == 0 {
		t.Fatalf("cache not populated before DDL: %+v", before)
	}

	if err := db.Exec("CREATE TABLE u (x INT)"); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Entries != 0 || after.Invalidations == 0 {
		t.Fatalf("DDL did not flush the cache: %+v", after)
	}

	// The same query still answers correctly (fresh compile, new schema
	// version in the fingerprint) and re-populates the cache.
	res, err := db.Query("SELECT COUNT(*) FROM t WHERE a < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).(int64) != 2 {
		t.Errorf("post-DDL result wrong: %v", res.Value(0, 0))
	}
	if st := db.PlanCacheStats(); st.Misses <= before.Misses {
		t.Errorf("post-DDL query did not recompile: %+v", st)
	}
}

// TestPlanCacheLRUEviction: a tiny entry budget evicts least-recently-used
// shapes, and an evicted shape recompiles on its next use.
func TestPlanCacheLRUEviction(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE t (a INT, b INT, c INT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO t VALUES (1, 2, 3)"); err != nil {
		t.Fatal(err)
	}
	db.SetPlanCacheLimits(2, 0)
	shapes := []string{
		"SELECT COUNT(*) FROM t WHERE a < 10",
		"SELECT COUNT(*) FROM t WHERE b < 10",
		"SELECT COUNT(*) FROM t WHERE c < 10",
	}
	for _, src := range shapes {
		if _, err := db.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Evictions == 0 || st.Entries > 2 {
		t.Fatalf("tiny budget did not evict: %+v", st)
	}
	// Shape 0 was the least recently used; running it again must miss.
	if _, err := db.Query(shapes[0]); err != nil {
		t.Fatal(err)
	}
	if st2 := db.PlanCacheStats(); st2.Misses != st.Misses+1 {
		t.Errorf("evicted shape did not recompile: %+v then %+v", st, st2)
	}

	// A byte budget smaller than one module still serves (and retains) the
	// newest entry rather than thrashing.
	db.SetPlanCacheLimits(0, 1)
	if _, err := db.Query(shapes[1]); err != nil {
		t.Fatal(err)
	}
	if st3 := db.PlanCacheStats(); st3.Entries != 1 {
		t.Errorf("over-budget newest entry not retained: %+v", st3)
	}
}

// TestPlanCacheConcurrentSingleflight: many goroutines issuing the same
// brand-new query shape concurrently must collapse into one compilation
// (exactly one miss), all receive correct results, and — under `make
// verify` — survive the race detector.
func TestPlanCacheConcurrentSingleflight(t *testing.T) {
	db := tpchDB(t)
	const n = 16
	src := "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 17"
	var wg sync.WaitGroup
	errs := make([]error, n)
	rows := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.Query(src)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = formatSorted(t, res, true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if rows[i] != rows[0] {
			t.Errorf("goroutine %d saw different rows:\n%s\nvs\n%s", i, rows[i], rows[0])
		}
	}
	st := db.PlanCacheStats()
	if st.Misses != 1 {
		t.Errorf("concurrent identical queries compiled %d times, want 1 (%+v)", st.Misses, st)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d (%+v)", st.Hits, n-1, st)
	}
}
