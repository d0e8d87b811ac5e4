package core

import (
	"runtime"
	"sync"

	"wasmdb/internal/obs"
)

// Scheduler is the process-wide morsel worker-slot pool shared by every
// concurrently executing query — the inter-query half of morsel-driven
// scheduling. Intra-query parallelism (ExecOptions.Parallelism) decides how
// many workers a query *wants*; the scheduler decides how many it *gets*,
// so a burst of concurrent queries cannot oversubscribe the machine with
// worker pools sized as if each query ran alone.
//
// Slots count the extra worker goroutines a query runs beyond its own
// calling goroutine: a serial query consumes none (bounding serial
// concurrency is the admission layer's job, not the scheduler's), a query
// granted e extras runs 1+e workers. Grants are leases:
//
//   - Acquire never blocks. It grants min(want-1, fair share, available)
//     extras, where the fair share is total/(active leases + 1) — a query
//     arriving on an idle pool gets everything, the second query arriving
//     concurrently gets half, and so on.
//   - A grant below one extra is a denial: the query runs serially and the
//     executor records the never-silent "worker-slots-exhausted" fallback.
//   - Leases are revocable at morsel granularity — the fair time-slice.
//     When a new query cannot obtain its fair share, over-share leases are
//     marked down to the new fair share; their workers observe
//     ShouldYield between morsels, retire, and return their slots, so the
//     pool converges to fairness while every query keeps making progress
//     (worker 0 is never revoked). Partial state held by a retired worker
//     is still merged at the pipeline barrier, so early retirement never
//     changes results.
type Scheduler struct {
	total int

	mu     sync.Mutex
	avail  int
	leases map[*Lease]struct{}
}

// Scheduler metrics, resolved once (recording is then atomic-only).
var (
	mSchedLeases = obs.Default.Counter(obs.MetricSchedLeases)
	mSchedDenied = obs.Default.Counter(obs.MetricSchedDenied)
	mSchedYields = obs.Default.Counter(obs.MetricSchedYields)
	gSchedAvail  = obs.Default.Gauge(obs.MetricSchedSlotsAvail)
	gSchedTotal  = obs.Default.Gauge(obs.MetricSchedSlotsTotal)
)

// NewScheduler creates a pool of total extra-worker slots (<= 0 means
// GOMAXPROCS).
func NewScheduler(total int) *Scheduler {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	gSchedTotal.Set(int64(total))
	gSchedAvail.Set(int64(total))
	return &Scheduler{total: total, avail: total, leases: map[*Lease]struct{}{}}
}

// Total returns the pool size.
func (s *Scheduler) Total() int { return s.total }

// Lease is one query's hold on scheduler slots. The zero of *Lease (nil) is
// inert: every method is nil-safe, so serial and scheduler-less executions
// share the parallel code path unconditionally.
type Lease struct {
	s      *Scheduler
	extras int // immutable initial grant

	mu       sync.Mutex
	keep     int    // current target extras (<= extras, only ever lowered)
	yielded  []bool // per extra worker: slot already returned by ShouldYield
	returned int    // slots given back early, total
	released bool
}

// Acquire requests slots for a query that wants `workers` workers in total.
// It returns nil when the pool cannot grant at least one extra — the caller
// must fall back to serial execution — and a lease for 1+Extras() workers
// otherwise. Acquire never blocks: admission control queues *queries*; the
// scheduler only divides worker slots among the queries already running.
func (s *Scheduler) Acquire(workers int) *Lease {
	want := workers - 1
	if want < 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fair := s.total / (len(s.leases) + 1)
	n := min(want, fair, s.avail)
	if n < 1 {
		// Denied. Mark over-share leases down to the new fair share so their
		// workers retire at the next morsel boundary and the *next* query
		// finds slots — the time-slicing half of fairness.
		s.rebalanceLocked(fair)
		mSchedDenied.Add(1)
		return nil
	}
	if n < want {
		// Short grant under contention: shrink the incumbents too.
		s.rebalanceLocked(fair)
	}
	s.avail -= n
	gSchedAvail.Set(int64(s.avail))
	l := &Lease{s: s, extras: n, keep: n, yielded: make([]bool, n)}
	s.leases[l] = struct{}{}
	mSchedLeases.Add(1)
	return l
}

// rebalanceLocked lowers every lease's keep target to at most fair (but
// never below one extra — revoking a lease entirely would leave a query
// that already built its worker pool paying pool overhead for nothing).
func (s *Scheduler) rebalanceLocked(fair int) {
	if fair < 1 {
		fair = 1
	}
	for l := range s.leases {
		l.mu.Lock()
		if l.keep > fair {
			l.keep = fair
		}
		l.mu.Unlock()
	}
}

// Extras returns the number of extra worker slots granted (0 on a nil
// lease), fixed at Acquire time.
func (l *Lease) Extras() int {
	if l == nil {
		return 0
	}
	return l.extras
}

// ShouldYield reports whether the worker with the given pool index should
// retire at this morsel boundary because the lease was marked down. Worker 0
// (the primary) never yields. The first observation by a given worker
// returns its slot to the pool immediately; the call is cheap enough for the
// morsel loop (one mutex acquisition, uncontended in steady state). A worker
// id beyond the grant holds no slot: it is told to yield and gives nothing
// back.
func (l *Lease) ShouldYield(workerID int) bool {
	if l == nil || workerID == 0 {
		return false
	}
	l.mu.Lock()
	if workerID <= l.keep {
		l.mu.Unlock()
		return false
	}
	idx := workerID - 1
	give := idx < len(l.yielded) && !l.released && !l.yielded[idx]
	if give {
		l.yielded[idx] = true
		l.returned++
	}
	l.mu.Unlock()
	if give {
		l.s.giveBack(1)
		mSchedYields.Add(1)
	}
	return true
}

// Release returns the lease's remaining slots to the pool. Idempotent.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	held := l.extras - l.returned
	l.mu.Unlock()
	l.s.mu.Lock()
	delete(l.s.leases, l)
	l.s.mu.Unlock()
	l.s.giveBack(held)
}

// giveBack returns n slots to the pool.
func (s *Scheduler) giveBack(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.avail += n
	gSchedAvail.Set(int64(s.avail))
	s.mu.Unlock()
}

// InUse returns the number of slots currently leased out, for tests and
// metrics scraping.
func (s *Scheduler) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - s.avail
}
