package wasmdb_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"wasmdb"
	"wasmdb/internal/obs"
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
// it ends, as does the instance's frame arena; what remains is the page
// table, the instance and the result — ≈ 15 KiB here. A page or arena no
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
