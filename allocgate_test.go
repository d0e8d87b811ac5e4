package wasmdb_test

import (
	"context"
	"runtime"
	"testing"

	"wasmdb"
)

// TestWarmQueryAllocBudget is the allocation gate for the warm path: a
// prepared point query whose module is cached and optimized must not
// allocate more than 512 KiB per execution. Linear memory is demand-zero, so
// a warm query pays for the page table, the pages it touches and its result —
// ≈ 0.3 MiB here. Allocating the address space eagerly (result buffer, heap,
// column windows: ≈ 2.9 MiB per query, per worker) would fail this test
// rather than show up later as GC time in a benchmark.
func TestWarmQueryAllocBudget(t *testing.T) {
	const budget = 512 << 10
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.002, 42); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ? AND l_linenumber <= ?")
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: compile, cache, and let the optimizing tier finish so no
	// background compile allocates during the measured runs.
	if _, err := stmt.QueryContext(context.Background(), []any{24, 3}, wasmdb.WithWaitOptimized()); err != nil {
		t.Fatal(err)
	}
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
