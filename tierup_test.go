package wasmdb_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/leakcheck"
)

// TestTierUpDrainExitsAfterEviction: a module's drain goroutine exits once
// its queue is empty, also when the plan cache evicted the module while its
// queue was still full. The first queued compile of each query is held until
// the second query has evicted the first one's module.
func TestTierUpDrainExitsAfterEviction(t *testing.T) {
	defer leakcheck.Check(t)
	db := tpchDB(t)
	db.SetPlanCacheLimits(1, 0)
	release := make(chan struct{})
	var held atomic.Int32
	faultpoint.Enable("turbofan-compile", func(int) error {
		held.Add(1)
		<-release
		return nil
	})
	defer faultpoint.Disable("turbofan-compile")

	opts := []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithMorselRows(2048)}
	for _, id := range []string{"Q1", "Q6"} {
		src, _ := wasmdb.TPCHQuery(id)
		if _, err := db.Query(src, opts...); err != nil {
			close(release)
			t.Fatalf("%s: %v", id, err)
		}
	}
	waitFor(func() bool { return held.Load() == 2 })
	evicted := db.PlanCacheStats().Evictions
	close(release)
	if held.Load() != 2 || evicted != 1 {
		t.Fatalf("%d drains held, %d evictions; want both queries' drains held and Q1's module evicted", held.Load(), evicted)
	}
	// leakcheck.Check now waits for both drains, the evicted module's
	// included, to compile the rest of their queues and exit.
}

// TestLiftoffCompileFaultFailsQuery: a function's tier-1 compile runs on its
// first call, inside the query. When it fails — each first-call compile of
// the query in turn, on one worker and on two — Query returns the injected
// error and no rows. The function stays uncompiled, so the plan-cached
// module answers correctly once the fault is gone.
func TestLiftoffCompileFaultFailsQuery(t *testing.T) {
	defer leakcheck.Check(t)
	const src = "SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority"
	injected := errors.New("injected first-call compile failure")
	defer faultpoint.Disable("liftoff-compile")
	for _, workers := range []int{1, 2} {
		db := tpchDB(t)
		want, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff))
		if err != nil {
			t.Fatal(err)
		}
		opts := []wasmdb.Option{wasmdb.WithParallelism(workers), wasmdb.WithMorselRows(2048)}
		// Fail the k-th first-call compile of an uncached run, for k = 1, 2,
		// … until a run makes fewer than k: that run must succeed. How many a
		// run makes can vary by one or two, when a function queued for tier
		// 2 is optimized before its first call.
		k := 1
		for ; ; k++ {
			var hits atomic.Int32
			faultpoint.Enable("liftoff-compile", func(int) error {
				if hits.Add(1) == int32(k) {
					return injected
				}
				return nil
			})
			res, err := db.Query(src, append(opts, wasmdb.WithPlanCache(false))...)
			if int(hits.Load()) < k {
				if err != nil {
					t.Fatalf("%d workers, no compile failed: %v", workers, err)
				}
				if res.Format() != want.Format() || res.Stats.Workers != workers {
					t.Fatalf("%d workers, no compile failed: on %d workers\n%s\nwant\n%s", workers, res.Stats.Workers, res.Format(), want.Format())
				}
				break
			}
			if !errors.Is(err, injected) || res != nil {
				t.Fatalf("%d workers, compile %d failed: Query returned %v and %v, want the injected error and no result", workers, k, res, err)
			}
		}
		if k < 8 {
			t.Errorf("%d workers: a run made %d first-call compiles, want the whole query's", workers, k-1)
		}
		// A cached module keeps the stub whose compile failed.
		faultpoint.Enable("liftoff-compile", faultpoint.Always(injected))
		if _, err := db.Query(src, opts...); !errors.Is(err, injected) {
			t.Fatalf("%d workers: cached run returned %v, want the injected error", workers, err)
		}
		faultpoint.Disable("liftoff-compile")
		res, err := db.Query(src, opts...)
		if err != nil {
			t.Fatalf("%d workers: rerun of the cached module: %v", workers, err)
		}
		if got, w := res.Format(), want.Format(); got != w {
			t.Errorf("%d workers: rerun of the cached module returned\n%s\nwant\n%s", workers, got, w)
		}
	}
}
