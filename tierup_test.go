package wasmdb_test

import (
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
