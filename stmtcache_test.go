package wasmdb_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wasmdb"
	"wasmdb/internal/obs"
)

// planCacheEvent returns the arguments of the query's plan-cache event:
// result, fingerprint prefix and statement ("reused" on a statement-cache
// hit, "planned" when the front end ran). All are empty when the query made
// no plan-cache lookup.
func planCacheEvent(tr *wasmdb.Trace) (result, fp, statement string) {
	tr.EachEvent(func(ev obs.Event) {
		if ev.Name != obs.EvPlanCache {
			return
		}
		for _, a := range ev.Args {
			switch a.Key {
			case "result":
				result = a.Str
			case "fingerprint":
				fp = a.Str
			case "statement":
				statement = a.Str
			}
		}
	})
	return result, fp, statement
}

// frontEndSpans sums the parse, sema and plan spans a query recorded.
func frontEndSpans(tr *wasmdb.Trace) int {
	n := 0
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case obs.SpanParse, obs.SpanSema, obs.SpanPlan:
			n++
		}
	}
	return n
}

// stmtRun runs src with a fresh trace and returns the result, formatted as
// the differential tests compare it, and the statement outcome.
func stmtRun(t *testing.T, db *wasmdb.DB, src string, ordered bool, opts ...wasmdb.Option) (string, string, *wasmdb.Trace) {
	t.Helper()
	tr := wasmdb.NewTrace()
	res, err := db.Query(src, append(opts[:len(opts):len(opts)], wasmdb.WithTrace(tr))...)
	if err != nil {
		t.Fatalf("%v\nquery: %s", err, src)
	}
	_, _, stmt := planCacheEvent(tr)
	return formatSorted(t, res, ordered), stmt, tr
}

// TestStmtCacheDifferential: every statement of the root corpus, the TPC-H
// queries and auto-mixed's shapes gives byte-identical results as a
// statement-cache miss (both caches flushed), as a statement-cache hit (the
// same text again) and with the plan cache off, which runs the literal
// query. The miss plans, the hit reuses and records no parse, sema or plan
// span, and the cache-off run makes no plan-cache lookup at all.
func TestStmtCacheDifferential(t *testing.T) {
	db := tpchDB(t)
	type query struct {
		src     string
		ordered bool
	}
	var qs []query
	for _, q := range microCorpus {
		qs = append(qs, query{q.src, q.ordered})
	}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		src, _ := wasmdb.TPCHQuery(id)
		qs = append(qs, query{src, false})
	}
	for _, q := range autoMixed {
		qs = append(qs, query{q.src, false})
	}
	backends := []wasmdb.Backend{wasmdb.BackendWasm, wasmdb.BackendHyperLike, wasmdb.BackendAuto}
	for _, q := range qs {
		for _, b := range backends {
			opt := wasmdb.WithBackend(b)
			db.FlushPlanCache()
			miss, missStmt, _ := stmtRun(t, db, q.src, q.ordered, opt)
			hit, hitStmt, hitTr := stmtRun(t, db, q.src, q.ordered, opt)
			off, offStmt, _ := stmtRun(t, db, q.src, q.ordered, opt, wasmdb.WithPlanCache(false))
			if missStmt != "planned" || hitStmt != "reused" || offStmt != "" {
				t.Errorf("%v: statement outcomes %q, %q, %q; want planned, reused and no lookup\nquery: %s",
					b, missStmt, hitStmt, offStmt, q.src)
			}
			if n := frontEndSpans(hitTr); n != 0 {
				t.Errorf("%v: the statement hit recorded %d parse/sema/plan spans\nquery: %s", b, n, q.src)
			}
			if miss != hit || miss != off {
				t.Errorf("%v disagrees across statement miss, hit and cache off on %q:\n--- miss ---\n%s\n--- hit ---\n%s\n--- off ---\n%s",
					b, q.src, clip(miss), clip(hit), clip(off))
			}
		}
	}
}

// stmtJoinDB creates two tables whose equi-join builds on b while b is the
// smaller one.
func stmtJoinDB(t *testing.T, aRows, bRows int) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	for _, s := range []string{"CREATE TABLE a (k INTEGER, v INTEGER)", "CREATE TABLE b (k INTEGER, w INTEGER)"} {
		if err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	insertRows(t, db, "a", 0, aRows)
	insertRows(t, db, "b", 0, bRows)
	return db
}

// insertRows appends rows (k, k*3) for k in [from, from+n) to table.
func insertRows(t *testing.T, db *wasmdb.DB, table string, from, n int) {
	t.Helper()
	if n == 0 {
		return
	}
	vals := make([]string, n)
	for i := range vals {
		k := from + i
		vals[i] = fmt.Sprintf("(%d, %d)", k%7, k*3)
	}
	if err := db.Exec("INSERT INTO " + table + " VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
}

// TestStmtCacheInvalidation: a stored statement is valid only for the
// catalog schema version and the row counts it was planned against. After
// an INSERT that turns the join's build and probe sides around, the repeated
// text is planned afresh — its plan and fingerprint are those of a fresh
// database holding the same rows — and so it is after CREATE TABLE,
// LoadTPCH and FlushPlanCache.
func TestStmtCacheInvalidation(t *testing.T) {
	const src = "SELECT COUNT(*), SUM(v), SUM(w) FROM a, b WHERE a.k = b.k AND v > 5"
	db := stmtJoinDB(t, 40, 5)
	before, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"planned", "reused"} {
		if _, got, _ := stmtRun(t, db, src, false); got != want {
			t.Fatalf("run %d: statement %q, want %q", i, got, want)
		}
	}

	insertRows(t, db, "b", 5, 95)
	after, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatalf("the INSERT did not change the plan; the test needs a build/probe flip:\n%s", after)
	}
	got, stmt, tr := stmtRun(t, db, src, false)
	_, fp, _ := planCacheEvent(tr)
	fresh := stmtJoinDB(t, 40, 100)
	want, _, freshTr := stmtRun(t, fresh, src, false)
	_, freshFP, _ := planCacheEvent(freshTr)
	if stmt != "planned" || fp != freshFP || got != want {
		t.Errorf("after the INSERT: statement %q, fingerprint %s, result\n%s\nwant planned, fingerprint %s (a fresh database), result\n%s",
			stmt, fp, got, freshFP, want)
	}
	if _, stmt, _ := stmtRun(t, db, src, false); stmt != "reused" {
		t.Errorf("the re-planned statement was not stored: %q", stmt)
	}

	for _, c := range []struct {
		name string
		do   func() error
	}{
		{"CREATE TABLE", func() error { return db.Exec("CREATE TABLE c (x INTEGER)") }},
		{"LoadTPCH", func() error { return db.LoadTPCH(0.001, 1) }},
		{"FlushPlanCache", func() error { db.FlushPlanCache(); return nil }},
	} {
		if err := c.do(); err != nil {
			t.Fatal(err)
		}
		got, stmt, _ := stmtRun(t, db, src, false)
		if stmt != "planned" || got != want {
			t.Errorf("after %s: statement %q, result\n%s\nwant planned and\n%s", c.name, stmt, got, want)
		}
		if _, stmt, _ := stmtRun(t, db, src, false); stmt != "reused" {
			t.Errorf("after %s: the repeat was %q, want reused", c.name, stmt)
		}
	}
}

// TestStmtCacheLimitParam: a statement with an explicit LIMIT ? is planned
// on every execution — its plan's limit node holds the bound value — so
// varying bound values, on the adaptive backend and on auto, give what the
// literal query gives.
func TestStmtCacheLimitParam(t *testing.T) {
	db := tpchDB(t)
	const prepared = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > ? ORDER BY o_totalprice DESC LIMIT ?"
	stmt, err := db.Prepare(prepared)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []wasmdb.Backend{wasmdb.BackendWasm, wasmdb.BackendAuto} {
		for _, n := range []int{5, 0, 1, 40, 5, 3} {
			tr := wasmdb.NewTrace()
			res, err := stmt.QueryContext(t.Context(), []any{100000, n}, wasmdb.WithBackend(b), wasmdb.WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			literal := fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100000 ORDER BY o_totalprice DESC LIMIT %d", n)
			ref, err := db.Query(literal, wasmdb.WithPlanCache(false))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, st := planCacheEvent(tr); st != "planned" {
				t.Errorf("%v LIMIT %d: statement %q, want planned", b, n, st)
			}
			if got, want := res.Format(), ref.Format(); got != want {
				t.Errorf("%v LIMIT %d:\n%s\nwant\n%s", b, n, got, want)
			}
		}
	}
}

// TestStmtCacheErrors: what a statement-cache hit refuses, it refuses with
// the miss's error text — an ad-hoc run of a text with placeholders, and a
// prepared execution with the wrong argument count — and a hit whose
// literals overflow the parameter region still falls back to the literal
// query.
func TestStmtCacheErrors(t *testing.T) {
	db := tpchDB(t)
	const src = "SELECT COUNT(*) FROM lineitem WHERE l_quantity < ?"
	_, missErr := db.Query(src)
	stmt, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	_, missArgs := stmt.Query(1, 2)
	if _, err := stmt.Query(24); err != nil {
		t.Fatal(err)
	}
	tr := wasmdb.NewTrace()
	if _, err := stmt.QueryContext(t.Context(), []any{30}, wasmdb.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if _, _, st := planCacheEvent(tr); st != "reused" {
		t.Fatalf("the statement is not stored: %q", st)
	}
	_, hitErr := db.Query(src)
	_, hitArgs := stmt.Query(1, 2)
	for _, c := range []struct {
		name      string
		miss, hit error
	}{
		{"ad-hoc placeholders", missErr, hitErr},
		{"argument count", missArgs, hitArgs},
	} {
		if c.miss == nil || c.hit == nil || c.miss.Error() != c.hit.Error() {
			t.Errorf("%s: hit error %v, miss error %v; want the same error", c.name, c.hit, c.miss)
		}
	}

	// More BIGINT literals than the parameter region's 64 KiB hold: the
	// plan-cache path overflows and the literal query runs, on the miss and
	// on the hit alike.
	if err := db.Exec("CREATE TABLE big (k BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO big VALUES (3), (9000), (20000)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("SELECT COUNT(*) FROM big WHERE k = 0")
	for i := 1; i < 8400; i++ {
		fmt.Fprintf(&sb, " OR k = %d", i)
	}
	for _, run := range []string{"miss", "hit"} {
		tr := wasmdb.NewTrace()
		res, err := db.Query(sb.String(), wasmdb.WithTrace(tr))
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if got := res.Value(0, 0); got != int64(1) {
			t.Errorf("%s: COUNT(*) = %v, want 1", run, got)
		}
		if result, _, _ := planCacheEvent(tr); result != "" {
			t.Fatalf("%s: the plan-cache lookup succeeded (%s); the literals must overflow", run, result)
		}
		if n := frontEndSpans(tr); (run == "hit") != (n == 0) {
			t.Errorf("%s: %d parse/sema/plan spans", run, n)
		}
	}
}

// TestStmtCacheConcurrentHits: goroutines running the same texts at once —
// ad hoc and prepared, on the adaptive backend and on auto — share the
// stored statements (go test -race checks that nothing writes them) and
// agree with the literal query.
func TestStmtCacheConcurrentHits(t *testing.T) {
	db := tpchDB(t)
	adhoc := []string{
		"SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > 150000",
	}
	const prepared = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ? AND l_linenumber <= ?"
	stmt, err := db.Prepare(prepared)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, src := range adhoc {
		res, err := db.Query(src, wasmdb.WithPlanCache(false))
		if err != nil {
			t.Fatal(err)
		}
		want[src] = res.Format()
	}
	ref, err := db.Query("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24 AND l_linenumber <= 3", wasmdb.WithPlanCache(false))
	if err != nil {
		t.Fatal(err)
	}
	want[prepared] = ref.Format()

	backends := []wasmdb.Backend{wasmdb.BackendWasm, wasmdb.BackendAuto}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				opt := wasmdb.WithBackend(backends[(g+i)%2])
				src := prepared
				var res *wasmdb.Result
				var err error
				if k := (g + i) % 3; k < len(adhoc) {
					src = adhoc[k]
					res, err = db.Query(src, opt)
				} else {
					res, err = stmt.QueryContext(t.Context(), []any{24, 3}, opt)
				}
				if err != nil {
					errs <- err
					return
				}
				if got := res.Format(); got != want[src] {
					errs <- fmt.Errorf("%q returned\n%s\nwant\n%s", src, got, want[src])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, b := range backends {
		if _, st, _ := stmtRun(t, db, adhoc[0], true, wasmdb.WithBackend(b)); st != "reused" {
			t.Errorf("%v: after the concurrent runs the statement was %q, want reused", b, st)
		}
	}
}

// TestStmtCacheExplainAnalyze: EXPLAIN ANALYZE's plan-cache line says
// whether the statement was planned or reused, and a reused statement shows
// no parse, sema or plan phase.
func TestStmtCacheExplainAnalyze(t *testing.T) {
	db := tpchDB(t)
	const src = "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24"
	first, err := db.ExplainAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.ExplainAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	// A phase line pads its label: "  plan  " is the plan phase, "  plan
	// cache" the plan-cache line.
	if !strings.Contains(first, "statement planned") || !strings.Contains(first, "  parse  ") {
		t.Errorf("the first run does not show a planned statement:\n%s", first)
	}
	if !strings.Contains(second, "statement reused") || strings.Contains(second, "  parse  ") ||
		strings.Contains(second, "  sema  ") || strings.Contains(second, "  plan  ") {
		t.Errorf("the repeat does not show a reused statement without front-end phases:\n%s", second)
	}
}
