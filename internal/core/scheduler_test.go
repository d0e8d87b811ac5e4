package core

import (
	"sync"
	"testing"

	"wasmdb/internal/engine"
)

func TestSchedulerFairShareAndDenial(t *testing.T) {
	s := NewScheduler(4)

	// An idle pool grants the full request.
	l1 := s.Acquire(5) // wants 4 extras
	if l1 == nil || l1.Extras() != 4 {
		t.Fatalf("idle acquire: got %v extras, want 4", l1.Extras())
	}
	if s.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", s.InUse())
	}

	// A second query finds nothing free: denied, and the first lease is
	// marked down to the new fair share (4 slots / 2 queries = 2 extras).
	if l2 := s.Acquire(3); l2 != nil {
		t.Fatalf("exhausted acquire granted %d extras, want denial", l2.Extras())
	}
	if l1.ShouldYield(0) {
		t.Fatal("worker 0 (primary) must never yield")
	}
	for _, id := range []int{1, 2} {
		if l1.ShouldYield(id) {
			t.Errorf("worker %d within fair share should not yield", id)
		}
	}
	for _, id := range []int{3, 4} {
		if !l1.ShouldYield(id) {
			t.Errorf("worker %d beyond fair share should yield", id)
		}
		if !l1.ShouldYield(id) {
			t.Errorf("worker %d: yield verdict must be sticky", id)
		}
	}
	// The two yielded slots are back in the pool for the next query.
	if s.InUse() != 2 {
		t.Fatalf("after yields InUse = %d, want 2", s.InUse())
	}
	l3 := s.Acquire(3)
	if l3 == nil || l3.Extras() != 2 {
		// fair share with one active lease: 4/(1+1) = 2 extras, both free.
		t.Fatalf("post-yield acquire: got %v, want 2 extras", l3.Extras())
	}

	l1.Release()
	l1.Release() // idempotent
	l3.Release()
	if s.InUse() != 0 {
		t.Fatalf("after release InUse = %d, want 0", s.InUse())
	}
}

func TestSchedulerSerialRequestsBypassPool(t *testing.T) {
	s := NewScheduler(2)
	if l := s.Acquire(1); l != nil {
		t.Fatal("a serial query (1 worker) must not take a lease")
	}
	if l := s.Acquire(0); l != nil {
		t.Fatal("workers <= 1 must not take a lease")
	}
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", s.InUse())
	}
}

func TestSchedulerNilLeaseIsInert(t *testing.T) {
	var l *Lease
	if l.Extras() != 0 || l.ShouldYield(3) {
		t.Fatal("nil lease must grant nothing and never yield")
	}
	l.Release()
}

// TestSchedulerYieldBeyondGrant pins ShouldYield as total: a worker id above
// the lease's grant holds no slot, so it is told to yield without a slot
// being returned — and without indexing past the per-worker slice.
func TestSchedulerYieldBeyondGrant(t *testing.T) {
	s := NewScheduler(2)
	l := s.Acquire(4) // wants 3 extras, the pool has 2
	if l.Extras() != 2 {
		t.Fatalf("first acquire: %d extras, want 2", l.Extras())
	}
	if l2 := s.Acquire(4); l2 != nil {
		t.Fatalf("competing acquire granted %d extras, want denial", l2.Extras())
	}
	// The denial marked l down to one extra; ids 3 and 4 were never granted.
	for _, id := range []int{3, 4} {
		if !l.ShouldYield(id) {
			t.Errorf("worker %d beyond the grant should yield", id)
		}
	}
	if s.InUse() != 2 {
		t.Fatalf("ungranted workers returned slots: InUse = %d, want 2", s.InUse())
	}
	if !l.ShouldYield(2) || s.InUse() != 1 {
		t.Fatalf("worker 2 should yield its slot: InUse = %d, want 1", s.InUse())
	}
	l.Release()
	if s.InUse() != 0 {
		t.Fatalf("slots leaked: InUse = %d, want 0", s.InUse())
	}
}

func TestSchedulerConcurrentAcquireRelease(t *testing.T) {
	s := NewScheduler(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := s.Acquire(4)
				for w := 1; w < 4; w++ {
					l.ShouldYield(w)
				}
				l.Release()
			}
		}()
	}
	wg.Wait()
	if s.InUse() != 0 {
		t.Fatalf("slots leaked: InUse = %d, want 0", s.InUse())
	}
}

// TestExecuteUnderScheduler proves the executor contract end to end: a
// parallel-eligible query under an exhausted scheduler runs serially with
// the worker-slots-exhausted fallback recorded, and under a free scheduler
// runs with the granted pool — with identical results either way.
func TestExecuteUnderScheduler(t *testing.T) {
	cat := parCatalog(t, 50_000)
	cq, q := compileOn(t, cat, "SELECT i0, i1 FROM t WHERE i0 < 0")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})

	sched := NewScheduler(4)
	hog := sched.Acquire(5) // drain the pool
	res1, st1, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Workers != 1 || st1.SerialFallback != fallbackSlots {
		t.Fatalf("exhausted pool: workers=%d fallback=%q, want 1/%q",
			st1.Workers, st1.SerialFallback, fallbackSlots)
	}
	hog.Release()

	res2, st2, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Workers < 2 || st2.SerialFallback != "" {
		t.Fatalf("free pool: workers=%d fallback=%q, want >1 workers and no fallback",
			st2.Workers, st2.SerialFallback)
	}
	if sched.InUse() != 0 {
		t.Fatalf("lease not released: InUse = %d", sched.InUse())
	}
	got, want := sortedRows(res2), sortedRows(res1)
	if len(got) != len(want) {
		t.Fatalf("scheduler changed row count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scheduler changed results at row %d: %q vs %q", i, got[i], want[i])
		}
	}
}
