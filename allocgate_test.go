package wasmdb_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"wasmdb"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
)

// warmStmt prepares the warm-path probe — a parameterized point aggregate
// over TPC-H SF 0.002 — and runs it once with the optimizing tier awaited,
// so later executions are plan-cache hits on optimized code and no
// background compile allocates during a measurement.
func warmStmt(tb testing.TB) *wasmdb.Stmt {
	tb.Helper()
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.002, 42); err != nil {
		tb.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ? AND l_linenumber <= ?")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := stmt.QueryContext(context.Background(), []any{24, 3}, wasmdb.WithWaitOptimized()); err != nil {
		tb.Fatal(err)
	}
	return stmt
}

// raceEnabled reports whether the test binary was built with -race. The race
// detector's sync.Pool drops a random quarter of what is put into it, so
// under -race recycled pages and frame arenas are re-allocated now and then
// and per-query allocation is not a property of the code alone.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestWarmQueryAllocBudget is the allocation gate for the warm path: a
// prepared point query whose module is cached and optimized must not
// allocate more than 64 KiB per execution. Linear memory is demand-zero and
// its pages come from a pool of zeroed pages that every query refills when
// it ends, as do the instance's frame arena and the page table; what
// remains is the instance, the query's trace and the result — ≈ 12 KiB here. A page or arena no
// longer recycled costs 32–64 KiB per query and fails this gate, and so does
// allocating the address space eagerly (result buffer, heap, column windows:
// ≈ 2.9 MiB per query, per worker). Under -race the pool drops a quarter of
// its pages on purpose, so there the gate stays at the 512 KiB it held
// before pages were recycled, which still catches the eager allocation.
func TestWarmQueryAllocBudget(t *testing.T) {
	budget := uint64(64 << 10)
	if raceEnabled() {
		budget = 512 << 10
	}
	stmt := warmStmt(t)
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		res, err := stmt.Query(10+i%30, 1+i%7)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("run %d: %d rows, want 1", i, res.NumRows())
		}
	}
	runtime.ReadMemStats(&after)
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > budget {
		t.Errorf("warm prepared query allocates %d KiB per execution, budget %d KiB", perQuery>>10, budget>>10)
	} else {
		t.Logf("warm prepared query: %d KiB per execution (budget %d KiB)", perQuery>>10, budget>>10)
	}
}

// TestWarmAutoQueryExactAllocs is an exact allocation gate on a warm
// BackendAuto query's fixed cost: auto-mixed's lineitem GROUP BY on TPC-H SF
// 0.002, served from the statement cache and the plan cache on tier-2 code
// with one worker, makes at most 110 allocations per execution
// (testing.AllocsPerRun). It makes 94 (97 under -race): the repeated text
// skips lex, parse, sema, parameterize, plan and fingerprint, the trace is
// one allocation with no counter map and no per-call argument lists, Stats,
// the latency histogram and the autopilot's feedback read the trace in
// place, no query-log record is built without a WithQueryLog callback, and
// the page table is recycled. While every execution ran the front end it
// made 194 (199), and before the trace and lexer were made allocation-light
// 262 (267).
func TestWarmAutoQueryExactAllocs(t *testing.T) {
	const budget = 110
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.002, 42); err != nil {
		t.Fatal(err)
	}
	const src = "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-02-19' GROUP BY l_shipmode ORDER BY l_shipmode"
	opt := wasmdb.WithBackend(wasmdb.BackendAuto)
	for _, warm := range [][]wasmdb.Option{{opt}, {opt, wasmdb.WithWaitOptimized()}} {
		if _, err := db.Query(src, warm...); err != nil {
			t.Fatal(err)
		}
	}
	var st wasmdb.Stats
	allocs := testing.AllocsPerRun(50, func() {
		res, err := db.Query(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		st = res.Stats
	})
	if st.Workers != 1 || st.MorselsLiftoff != 0 {
		t.Fatalf("the probe ran on %d workers with %d tier-1 morsels, want 1 worker on tier-2 code only", st.Workers, st.MorselsLiftoff)
	}
	if allocs > budget {
		t.Errorf("warm auto query makes %v allocations per execution, budget %d", allocs, budget)
	} else {
		t.Logf("warm auto query: %v allocations per execution (budget %d)", allocs, budget)
	}
}

// coldCorpus plans BenchmarkColdCompile's queries (internal/engine, the
// queries of TestCodeSizeGolden) on TPC-H SF 0.01, seed 42: the five TPC-H
// queries and two grouped, ordered scans.
func coldCorpus(tb testing.TB) (qs []*sema.Query, roots []plan.Node) {
	tb.Helper()
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		tb.Fatal(err)
	}
	srcs := []string{
		"SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-04-01' GROUP BY l_shipmode ORDER BY l_shipmode",
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority",
	}
	for _, id := range tpch.QueryIDs {
		srcs = append(srcs, tpch.Queries[id])
	}
	for _, src := range srcs {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			tb.Fatal(err)
		}
		q, err := sema.Analyze(stmt, cat)
		if err != nil {
			tb.Fatal(err)
		}
		root, err := plan.Build(q)
		if err != nil {
			tb.Fatal(err)
		}
		qs, roots = append(qs, q), append(roots, root)
	}
	return qs, roots
}

// TestColdCompileAllocBudget is the allocation gate for the cold path's
// fixed cost: code generation (core.CompileStyled, in the ad-hoc and the
// HyPer-like style) plus engine.Compile on the baseline tier, over
// BenchmarkColdCompile's seven queries. After one warm-up pass the module
// builder and the emitter buffers come from their pools, so what remains is
// the encoded module, the decoded one the engine keeps, and the compiled
// code: ≈ 515 KB per pass. The gate is 600 KB; before the builder was pooled
// a pass allocated 765 KB, so a builder that is no longer reused, or bodies
// copied again, fails it. Under -race sync.Pool drops a quarter of its puts
// on purpose and a pass allocates ≈ 885 KB, so there the gate is 1 MiB;
// without the pooled builder it was ≈ 1 060 KB.
func TestColdCompileAllocBudget(t *testing.T) {
	budget := uint64(600_000)
	if raceEnabled() {
		budget = 1 << 20
	}
	qs, roots := coldCorpus(t)
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	styles := []core.Style{{}, {LibraryHT: true, LibrarySort: true, PredicatedSelection: true}}
	pass := func() {
		for _, style := range styles {
			for i, q := range qs {
				cq, err := core.CompileStyled(q, roots[i], style)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Compile(cq.Bin); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	if perPass := (after.TotalAlloc - before.TotalAlloc) / runs; perPass > budget {
		t.Errorf("cold compile of the corpus allocates %d KB per pass, budget %d KB", perPass/1000, budget/1000)
	} else {
		t.Logf("cold compile of the corpus: %d KB per pass (budget %d KB)", perPass/1000, budget/1000)
	}
}

// TestWarmQueryRecyclesPages counts the mechanism behind the gate above:
// once warm, every page the prepared query commits is taken from the pool,
// and none is freshly allocated. The garbage collector, which drains the
// pool, is off for the measured runs, so a fresh page means a page that was
// not handed back. Under -race the pool drops pages on purpose (see
// raceEnabled), so only recycling itself is checked there.
func TestWarmQueryRecyclesPages(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stmt := warmStmt(t)
	run := func(i int) (recycled, fresh int64) {
		tr := wasmdb.NewTrace()
		if _, err := stmt.QueryContext(context.Background(), []any{10 + i%30, 1 + i%7}, wasmdb.WithTrace(tr)); err != nil {
			t.Fatal(err)
		}
		return tr.Value(obs.CtrPagesRecycled), tr.Value(obs.CtrPagesFresh)
	}
	// Warm-up: the pool fills with as many pages as one execution commits,
	// plus one for each scheduler processor the query has run on.
	for i := 0; i < 10; i++ {
		run(i)
	}
	var recycled int64
	for i := 0; i < 50; i++ {
		r, f := run(i)
		recycled += r
		if f != 0 && !raceEnabled() {
			t.Errorf("warm run %d: %d fresh pages, %d recycled; want every page from the pool", i, f, r)
		}
	}
	if recycled == 0 {
		t.Error("warm runs recycled no page: the query committed none, or nothing was handed back")
	}
}

// BenchmarkWarmQuery is the warm path's allocation figure: one execution of
// the prepared point aggregate of TestWarmQueryAllocBudget, a plan-cache hit
// on optimized code. B/op is what the allocation gate bounds.
func BenchmarkWarmQuery(b *testing.B) {
	stmt := warmStmt(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(10+i%30, 1+i%7); err != nil {
			b.Fatal(err)
		}
	}
}
