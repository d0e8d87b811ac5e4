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
//
// An enabled trace is what every query records into, so its cost is part of
// every query's fixed cost. NewTrace is one allocation of 3 KiB that holds a
// typical query's spans, events and their arguments inline, as compact
// records with times relative to the trace's start; the Ctr* counters live
// in a fixed table and need no map; recording copies a span's or event's
// Args into storage the trace owns, so the variadic arguments of End and
// Event stay on the caller's stack. A query that outgrows the inline storage
// (a detailed trace's per-morsel spans, a wide parallel plan's tier-switch
// events) allocates again: its records grow as a slice, its arguments in
// chunks of 32. The readers inside the process — Stats, the query log
// record, the autopilot's feedback — walk the events in place with
// EachEvent; Spans and Events copy for outside callers.
//
// Traces are deliberately not pooled: a module's tier-up drain keeps writing
// tier-up events into the trace of the query that queued the function after
// that query has returned, so a recycled trace would receive another query's
// events.
package obs

import (
	"math"
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
	// EvTierUpQueued marks a function entering its module's tier-up queue
	// (args: func — the function index, imports first; rows — the rows still
	// ahead of the pipeline that queued it, 0 for a whole-module trigger;
	// trigger — "rows-ahead", "rerun" or "wait").
	EvTierUpQueued = "tier-up-queued"
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
	// EvAutopilot marks a BackendAuto decision (args: choice — always
	// "adaptive", workers — the granted worker-pool size, corrected — 1 when
	// stored feedback corrected the work estimate, reason).
	EvAutopilot = "autopilot"
	// EvPlanCache marks a plan-cache lookup (args: result — "hit" or "miss",
	// fingerprint — the plan fingerprint's short prefix, tier — the tier the
	// cached module currently dispatches to on a hit, statement — "reused"
	// when the statement cache supplied the plan and fingerprint, "planned"
	// when the front end ran).
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

// Counter names stored on the trace (set by the executor at query end). Each
// has a slot in the trace's fixed counter table (ctrIndex); any other name
// goes to a short list.
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

// numCtrs is the size of the fixed counter table: one slot per Ctr* name.
const numCtrs = 15

// ctrIndex returns the table slot of a Ctr* name, or -1 for any other name.
func ctrIndex(name string) int {
	switch name {
	case CtrMorselsLiftoff:
		return 0
	case CtrMorselsTurbofan:
		return 1
	case CtrTurbofanFailed:
		return 2
	case CtrModuleBytes:
		return 3
	case CtrFuelUsed:
		return 4
	case CtrPeakMemBytes:
		return 5
	case CtrCommittedMemBytes:
		return 6
	case CtrPagesRecycled:
		return 7
	case CtrPagesFresh:
		return 8
	case CtrResultRows:
		return 9
	case CtrWorkers:
		return 10
	case CtrPipelinesParallel:
		return 11
	case CtrPipelinesSerial:
		return 12
	case CtrGroupsMerged:
		return 13
	case CtrJoinPartitionsMerged:
		return 14
	}
	return -1
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

	mu sync.Mutex
	// recs holds the spans and events in the order they were recorded.
	recs []record
	// args is the chunk of Arg storage that records' Args are taken from;
	// a full chunk is left to the records that point into it and a new one
	// started, so an Arg is never moved or written again.
	args []Arg
	// ctrs is the Ctr* counters by ctrIndex; extra holds every other name.
	ctrs  [numCtrs]int64
	extra []namedCtr

	// The first storage of recs and args, room for a warm serial query's
	// spans, events and arguments with some to spare (a Trace is 3 KiB), so
	// that a typical query's trace is one allocation.
	recBuf [24]record
	argBuf [32]Arg
}

// record is a span or an event. Times are offsets from the trace's start,
// from which Span.Start and Event.Time are restored; args is a window of an
// Arg chunk, nil for none.
type record struct {
	name string
	at   time.Duration
	dur  time.Duration // isEvent for an event
	args []Arg
}

// isEvent is an event record's dur: no span lasts that long.
const isEvent = time.Duration(math.MinInt64)

// argChunk is the size of the Arg chunks a trace allocates once its inline
// storage is used up.
const argChunk = 32

// namedCtr is a counter outside the fixed table.
type namedCtr struct {
	name string
	v    int64
}

// NewTrace creates an empty trace anchored at the current time.
func NewTrace() *Trace {
	t := &Trace{start: time.Now()}
	t.recs, t.args = t.recBuf[:0], t.argBuf[:0]
	return t
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
	tm.t.AddSpan(tm.name, tm.start, time.Since(tm.start), args...)
}

// AddSpan records an externally timed span.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.record(name, start.Sub(t.start), dur, args)
}

// Event records a point event at the current time.
func (t *Trace) Event(name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(name, time.Since(t.start), isEvent, args)
}

// record appends a span, or an event if dur is isEvent, copying args into
// the trace's own storage.
func (t *Trace) record(name string, at, dur time.Duration, args []Arg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := record{name: name, at: at, dur: dur}
	if n := len(args); n > 0 {
		if cap(t.args)-len(t.args) < n {
			t.args = make([]Arg, 0, max(argChunk, n))
		}
		t.args = append(t.args, args...)
		r.args = t.args[len(t.args)-n : len(t.args) : len(t.args)]
	}
	t.recs = append(t.recs, r)
}

// span and event restore a record's public form.
func (t *Trace) span(r *record) Span {
	return Span{Name: r.name, Start: t.start.Add(r.at), Dur: r.dur, Args: r.args}
}

func (t *Trace) event(r *record) Event {
	return Event{Name: r.name, Time: t.start.Add(r.at), Args: r.args}
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
	*t.counter(name) += delta
	t.mu.Unlock()
}

// Set stores the named counter.
func (t *Trace) Set(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	*t.counter(name) = v
	t.mu.Unlock()
}

// counter returns the named counter's storage, adding a zero counter for a
// name not seen before. Caller holds t.mu.
func (t *Trace) counter(name string) *int64 {
	if i := ctrIndex(name); i >= 0 {
		return &t.ctrs[i]
	}
	for i := range t.extra {
		if t.extra[i].name == name {
			return &t.extra[i].v
		}
	}
	t.extra = append(t.extra, namedCtr{name: name})
	return &t.extra[len(t.extra)-1].v
}

// Value reads the named counter (0 if absent or trace is nil).
func (t *Trace) Value(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := ctrIndex(name); i >= 0 {
		return t.ctrs[i]
	}
	for _, c := range t.extra {
		if c.name == name {
			return c.v
		}
	}
	return 0
}

// Dur sums the durations of all spans with the given name.
func (t *Trace) Dur(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for i := range t.recs {
		if r := &t.recs[i]; r.dur != isEvent && r.name == name {
			d += r.dur
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
	out := make([]Span, 0, len(t.recs))
	for i := range t.recs {
		if r := &t.recs[i]; r.dur != isEvent {
			out = append(out, t.span(r))
		}
	}
	return out
}

// Events returns a snapshot copy of the recorded events.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.recs))
	for i := range t.recs {
		if r := &t.recs[i]; r.dur == isEvent {
			out = append(out, t.event(r))
		}
	}
	return out
}

// EachEvent calls fn with each recorded event in order, in place: unlike
// Events it copies nothing, so the readers that derive a query's Stats, log
// record and feedback from its trace allocate nothing. It holds the trace's
// lock throughout, so fn must not call methods of t.
func (t *Trace) EachEvent(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.recs {
		if r := &t.recs[i]; r.dur == isEvent {
			fn(t.event(r))
		}
	}
}

// HasEvent reports whether an event with the given name was recorded.
func (t *Trace) HasEvent(name string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.recs {
		if r := &t.recs[i]; r.dur == isEvent && r.name == name {
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
