// Package obs is the observability layer: a low-overhead query-lifecycle
// tracer (spans + point events), a process-wide metrics registry, and a
// Chrome trace_event exporter. It sits at the very bottom of the dependency
// graph — it imports nothing but the standard library, so every other layer
// (faultpoint, wmem, engine, core, the public API) can record into it
// without import cycles. `make verify` enforces this by construction.
//
// The tracer is nil-safe and allocation-free when disabled: every method on
// a nil *Trace returns immediately, so hot paths pay a single pointer test.
// A non-nil Trace is safe for concurrent use — the background TurboFan
// compiler publishes tier-up events into the same trace the morsel loop is
// writing to.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical span names, recorded once per query phase. Trace.Dur sums all
// spans of a name, so repeated phases (e.g. several pipelines) aggregate.
const (
	SpanParse       = "parse"
	SpanSema        = "sema"
	SpanPlan        = "plan"
	SpanCodegen     = "codegen"
	SpanDecode      = "decode"
	SpanValidate    = "validate"
	SpanLiftoff     = "liftoff-compile"
	SpanTurbofan    = "turbofan-compile"
	SpanRewire      = "rewire"
	SpanInstantiate = "instantiate"
	SpanExecute     = "execute"
	// SpanPipeline prefixes one span per driven pipeline:
	// "pipeline:pipeline_0".
	SpanPipeline = "pipeline:"
	// SpanMorsel prefixes per-morsel spans, recorded only when Trace.Detail
	// is set (they are numerous).
	SpanMorsel = "morsel:"
	// SpanMerge covers a barrier of parallel execution: moving the secondary
	// workers' partial group states into the primary and folding them there,
	// merging sorted runs, or building a join table.
	SpanMerge = "merge"
	// SpanAdmission covers the time a request spent waiting in the query
	// service's bounded admission queue before execution began.
	SpanAdmission = "admission"
)

// Point-event names.
const (
	// EvTierUp marks a function's optimized code being published by the
	// background compiler (args: func, morsel — the morsel count at publish).
	EvTierUp = "tier-up"
	// EvTierSwitch marks the first call of a function actually served by
	// optimized code (args: func, morsel).
	EvTierSwitch = "tier-switch"
	// EvFuel is a fuel checkpoint (args: remaining), recorded at pipeline
	// boundaries on metered queries.
	EvFuel = "fuel"
	// EvGrow marks a linear-memory growth (args: delta, pages — the new
	// high-water mark).
	EvGrow = "wmem-grow"
	// EvFaultpoint marks an armed fault-injection point being evaluated
	// (args: point, hit, injected).
	EvFaultpoint = "faultpoint"
	// EvParallel marks the start of intra-query parallel execution
	// (args: workers — the size of the morsel worker pool).
	EvParallel = "parallel-exec"
	// EvSerialFallback marks a query that requested parallelism but ran its
	// pipelines serially (args: reason — e.g. unmergeable pipeline state).
	EvSerialFallback = "serial-fallback"
	// EvAutopilot marks a BackendAuto routing decision (args: choice —
	// "vectorized" | "liftoff" | "adaptive", workers, corrected — 1 when
	// stored feedback overrode the estimate-only decision, reason).
	EvAutopilot = "autopilot"
	// EvPlanCache marks a plan-cache lookup (args: result — "hit" or "miss",
	// fingerprint — the plan fingerprint's short prefix, tier — the tier the
	// cached module currently dispatches to on a hit).
	EvPlanCache = "plan-cache"
	// EvGroupMerge marks the group-by pipeline barrier of parallel execution:
	// every secondary worker's partial groups were drained and folded into
	// the primary worker by its generated merge (args: groups — the partial
	// group records folded —, workers).
	EvGroupMerge = "group-merge"
	// EvSortMerge marks the order-by barrier: per-worker sorted runs were
	// gathered onto the primary worker and merged there by the generated
	// q_sort_merge, adjacent pairs in ⌈log₂ k⌉ passes (args: tuples, workers).
	EvSortMerge = "sort-merge"
	// EvJoinMerge marks a join build barrier: the build pipeline's tuple
	// chunks were counted, every worker reserved a directory of the exact
	// size, the other workers' chunks were aliased in, and every worker
	// placed all tuples (args: tuples, chunks, pages_aliased — page-table
	// entries written, 0 when serial —, slots — directory size per worker —,
	// alias_ns and finish_ns — the barrier's two phases —, workers). The
	// build pipeline's span carries the same figures.
	EvJoinMerge = "join-merge"
)

// Counter names stored on the trace (set by the executor at query end).
const (
	CtrMorselsLiftoff  = "morsels_liftoff"
	CtrMorselsTurbofan = "morsels_turbofan"
	CtrTurbofanFailed  = "turbofan_failed"
	CtrModuleBytes     = "module_bytes"
	CtrFuelUsed        = "fuel_used"
	CtrPeakMemBytes    = "peak_mem_bytes"
	// CtrCommittedMemBytes is the part of peak_mem_bytes the query allocated:
	// module-owned pages committed by a first touch.
	CtrCommittedMemBytes = "committed_mem_bytes"
	// CtrPagesRecycled and CtrPagesFresh split the committed pages by
	// origin: taken from the pool of zeroed pages, or newly allocated because
	// the pool was empty.
	CtrPagesRecycled = "pages_recycled"
	CtrPagesFresh    = "pages_fresh"
	CtrResultRows    = "result_rows"
	// CtrWorkers is the size of the morsel worker pool the query ran with.
	CtrWorkers = "workers"
	// CtrPipelinesParallel / CtrPipelinesSerial count pipelines driven by the
	// worker pool vs. pipelines that fell back to serial execution.
	CtrPipelinesParallel = "pipelines_parallel"
	CtrPipelinesSerial   = "pipelines_serial"
	// CtrGroupsMerged counts the partial group records folded into the
	// primary worker at the parallel group-by barrier (0 when no group merge
	// ran).
	CtrGroupsMerged = "groups_merged"
	// CtrJoinPartitionsMerged counts the secondary workers whose tuple chunks
	// were shared at parallel join build barriers (0 when serial).
	CtrJoinPartitionsMerged = "join_partitions_merged"
)

// WorkerCtr names a per-worker trace counter, e.g. "worker.2.morsels_turbofan"
// — the per-worker breakdown of adaptive tier usage under parallel execution.
func WorkerCtr(worker int, name string) string {
	return "worker." + strconv.Itoa(worker) + "." + name
}

// Arg is one key/value annotation on a span or event. Val carries numeric
// arguments; Str, when non-empty, wins over Val.
type Arg struct {
	Key string
	Val int64
	Str string
}

// I makes a numeric Arg.
func I(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// S makes a string Arg.
func S(key, val string) Arg { return Arg{Key: key, Str: val} }

// Span is one completed timed phase.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Args  []Arg
}

// Event is one instantaneous occurrence.
type Event struct {
	Name string
	Time time.Time
	Args []Arg
}

// Trace is a query-scoped recording of spans, events, and counters.
// The zero value is not usable; create with NewTrace. All methods are
// nil-safe: calling them on a nil *Trace is a cheap no-op.
type Trace struct {
	// Label identifies the trace (the SQL text); set before use.
	Label string
	// RequestID ties the trace to the serving-layer request that ran the
	// query (the X-Request-Id the server honored or generated). Empty for
	// embedded use. Set before use.
	RequestID string
	// Detail enables per-morsel span recording. Off by default — a large
	// scan produces thousands of morsels.
	Detail bool

	start time.Time

	// Hot counters, written from the morsel loop without taking mu.
	morsels atomic.Int64

	mu       sync.Mutex
	spans    []Span
	events   []Event
	counters map[string]int64
}

// NewTrace creates an empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), counters: map[string]int64{}}
}

// StartTime returns the trace's anchor time.
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Timer is an in-flight span started by Begin. The zero Timer (from a nil
// trace) is inert.
type Timer struct {
	t     *Trace
	name  string
	start time.Time
}

// Begin opens a span. Call End on the returned Timer to record it; on a nil
// trace this costs one pointer test and no clock read.
func (t *Trace) Begin(name string) Timer {
	if t == nil {
		return Timer{}
	}
	return Timer{t: t, name: name, start: time.Now()}
}

// End records the span, with optional annotations.
func (tm Timer) End(args ...Arg) {
	if tm.t == nil {
		return
	}
	sp := Span{Name: tm.name, Start: tm.start, Dur: time.Since(tm.start), Args: args}
	tm.t.mu.Lock()
	tm.t.spans = append(tm.t.spans, sp)
	tm.t.mu.Unlock()
}

// AddSpan records an externally timed span.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Dur: dur, Args: args})
	t.mu.Unlock()
}

// Event records a point event at the current time.
func (t *Trace) Event(name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Time: time.Now(), Args: args}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// AddMorsel counts one morsel dispatch (atomic; no lock).
func (t *Trace) AddMorsel() {
	if t == nil {
		return
	}
	t.morsels.Add(1)
}

// MorselCount returns the number of morsels dispatched so far. Safe to call
// from any goroutine — the background compiler stamps tier-up events with it.
func (t *Trace) MorselCount() int64 {
	if t == nil {
		return 0
	}
	return t.morsels.Load()
}

// Add increments the named counter.
func (t *Trace) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Set stores the named counter.
func (t *Trace) Set(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] = v
	t.mu.Unlock()
}

// Value reads the named counter (0 if absent or trace is nil).
func (t *Trace) Value(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Dur sums the durations of all spans with the given name.
func (t *Trace) Dur(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// Spans returns a snapshot copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Events returns a snapshot copy of the recorded events.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// HasEvent reports whether an event with the given name was recorded.
func (t *Trace) HasEvent(name string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// active is the process-wide current trace, consulted by instrumentation
// that has no query context of its own (faultpoint). The executor installs
// its trace for the duration of a query.
var active atomic.Pointer[Trace]

// SwapActive installs t as the active trace and returns the previous one,
// so nested scopes can restore it.
func SwapActive(t *Trace) *Trace {
	return active.Swap(t)
}

// Active returns the currently installed trace (nil if none).
func Active() *Trace {
	return active.Load()
}
