// Package plancache caches compiled queries keyed by plan fingerprint.
//
// A cache entry pairs the generated CompiledQuery (layout, pipelines,
// parameter slots — immutable after compilation) with the engine Module
// already compiled from it. Because the module is shared, its background
// TurboFan tier-up survives across queries: the first execution of a query
// shape pays liftoff compilation and tiers up mid-query, while a later
// cache hit instantiates the same module and dispatches optimized code from
// the very first morsel. Per-execution state — instances, linear memories,
// parameter-region contents — is created fresh by the executor and never
// lives here.
//
// The cache is bounded by entry count and by total generated-code bytes
// (LRU eviction), and is invalidated wholesale on DDL; fingerprints also
// embed the catalog schema version, so even a stale entry that survived a
// missed flush could never be returned for a new schema. Concurrent misses
// on one fingerprint are collapsed by a singleflight: the first caller
// compiles, the rest wait and share the result (counted as hits — they
// paid no compile). A failed compile is returned to every waiter and caches
// nothing.
//
// Layering: plancache sits above core and engine and below the public API;
// it must never be imported by them (`make verify` checks).
package plancache

import (
	"container/list"
	"sync"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
)

// Process-wide mirrors of every cache's outcome counters.
var (
	mHits          = obs.Default.Counter(obs.MetricPlanCacheHits)
	mMisses        = obs.Default.Counter(obs.MetricPlanCacheMisses)
	mEvictions     = obs.Default.Counter(obs.MetricPlanCacheEvictions)
	mInvalidations = obs.Default.Counter(obs.MetricPlanCacheInvalidations)
)

// Default capacity bounds.
const (
	DefaultMaxEntries = 128
	DefaultMaxBytes   = 64 << 20
)

// Entry is one cached compilation.
type Entry struct {
	// Fingerprint is the key the entry was stored under (core.Fingerprint).
	Fingerprint string
	// CQ is the compiled query: module bytes, pipelines, result layout, and
	// parameter slots. Immutable — shared by every execution that hits.
	CQ *core.CompiledQuery
	// Mod is the engine module compiled from CQ.Bin, with whatever tier-up
	// progress it has accumulated.
	Mod *engine.Module
}

// Feedback is one query shape's observed-execution record, keyed by the
// same fingerprint as the compiled entry — the memory of the autopilot's
// feedback loop. The cold decision runs on planner estimates alone; every
// execution writes what actually happened back here, and the next decision
// for the same fingerprint corrects itself against it. Feedback lives in a
// side table rather than on the LRU entry because it must outlive the
// entry: an evicted module is recompiled, but what the shape's runs
// observed still holds. Like code entries, feedback is invalidated
// wholesale on DDL Flush — the catalog statistics it was observed under are
// gone.
type Feedback struct {
	// Runs counts executions recorded for this fingerprint.
	Runs int64
	// Rows is the last observed result cardinality.
	Rows int64
	// EstRows is the planner's result estimate that run was made against
	// (autopilot.Profile.OutRows under its own bindings): the feedback
	// correction scales by Rows/EstRows, so a run bound to one LIMIT does
	// not rescale another binding's estimate. 0 when the recorder did not
	// say; the correction then compares Rows with the current estimate.
	EstRows float64
	// ExecNs / Morsels / MorselNs describe the last execution's cost:
	// pipeline execution time, morsel calls driven, and mean per-morsel
	// latency.
	ExecNs   int64
	Morsels  int64
	MorselNs int64
	// TierUpMorsel is the morsel index at which the first optimized-tier
	// dispatch happened (-1 when the run never left baseline code).
	TierUpMorsel int64
	// Workers is the worker-pool size the run executed with; SerialFallback
	// names why a parallel request ran serially (empty otherwise), and
	// FallbackIntrinsic marks reasons that are properties of the query shape
	// (they recur every run) rather than transient resource pressure.
	Workers           int
	SerialFallback    string
	FallbackIntrinsic bool
	// Choice is the autopilot decision the run executed under.
	Choice string
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	// Entries and CodeBytes describe current occupancy.
	Entries   int
	CodeBytes int64
	// FeedbackEntries counts occupied autopilot feedback slots.
	FeedbackEntries int
}

// Cache is a bounded LRU of compiled queries. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	lru        *list.List // front = most recently used; values are *Entry
	byFP       map[string]*list.Element
	bytes      int64
	flights    map[string]*flight

	// Autopilot feedback slots, FIFO-bounded independently of the code LRU
	// (a slot is a few dozen bytes; an entry is a compiled module). Guarded
	// by mu — the same lock that already serializes entry access, so
	// concurrent warm hits writing back cannot race or tear.
	feedback map[string]*list.Element
	fbOrder  *list.List // front = newest; values are *fbSlot

	hits, misses, evictions, invalidations int64
}

// fbSlot is one feedback slot in insertion order.
type fbSlot struct {
	fp string
	fb Feedback
}

// feedbackSlotsPerEntry scales the feedback bound off the entry bound:
// feedback is retained for more shapes than code is, since a slot is a few
// dozen bytes and a compiled entry far more.
const feedbackSlotsPerEntry = 4

// flight is one in-progress compilation that concurrent identical queries
// attach to instead of compiling again.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// New creates a cache with the given bounds; values <= 0 select the
// defaults.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		byFP:       map[string]*list.Element{},
		flights:    map[string]*flight{},
		feedback:   map[string]*list.Element{},
		fbOrder:    list.New(),
	}
}

// Feedback returns the stored execution feedback for a fingerprint.
func (c *Cache) Feedback(fp string) (Feedback, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.feedback[fp]; ok {
		return el.Value.(*fbSlot).fb, true
	}
	return Feedback{}, false
}

// RecordFeedback stores one execution's observations for a fingerprint,
// replacing the previous observation and accumulating the run count. Safe
// for concurrent use: warm hits of the same shape on many goroutines
// serialize on the cache lock, so the slot is replaced whole — never torn.
func (c *Cache) RecordFeedback(fp string, fb Feedback) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.feedback[fp]; ok {
		slot := el.Value.(*fbSlot)
		fb.Runs = slot.fb.Runs + 1
		slot.fb = fb
		return
	}
	fb.Runs = 1
	el := c.fbOrder.PushFront(&fbSlot{fp: fp, fb: fb})
	c.feedback[fp] = el
	for c.fbOrder.Len() > c.maxEntries*feedbackSlotsPerEntry {
		old := c.fbOrder.Back()
		c.fbOrder.Remove(old)
		delete(c.feedback, old.Value.(*fbSlot).fp)
	}
}

// GetOrCompile returns the cached entry for fp, or runs compile to create
// it. hit reports whether the caller avoided compilation — true both for a
// present entry and for a singleflight waiter that shared another caller's
// compile. A compile error is propagated to every attached waiter and
// nothing is cached.
func (c *Cache) GetOrCompile(fp string, compile func() (*core.CompiledQuery, *engine.Module, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.byFP[fp]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		mHits.Add(1)
		return el.Value.(*Entry), true, nil
	}
	if fl, ok := c.flights[fp]; ok {
		// Someone is compiling this fingerprint right now: wait for their
		// result instead of duplicating the work.
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		mHits.Add(1)
		return fl.e, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[fp] = fl
	c.mu.Unlock()

	cq, mod, cerr := compile()

	c.mu.Lock()
	delete(c.flights, fp)
	if cerr != nil {
		fl.err = cerr
		c.mu.Unlock()
		close(fl.done)
		return nil, false, cerr
	}
	fl.e = &Entry{Fingerprint: fp, CQ: cq, Mod: mod}
	c.misses++
	if !cq.Uncacheable {
		// A fault-injection-perturbed module is handed to its waiters but
		// never retained: its code is not a pure function of the fingerprint.
		el := c.lru.PushFront(fl.e)
		c.byFP[fp] = el
		c.bytes += int64(len(cq.Bin))
		c.evictLocked()
	}
	c.mu.Unlock()
	mMisses.Add(1)
	close(fl.done)
	return fl.e, false, nil
}

// evictLocked drops least-recently-used entries until both budgets hold.
// The newest entry is allowed to stand alone even if it exceeds the byte
// budget by itself — evicting it immediately would make the cache useless
// for that query shape while still paying the bookkeeping.
func (c *Cache) evictLocked() {
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*Entry)
		c.lru.Remove(el)
		delete(c.byFP, e.Fingerprint)
		c.bytes -= int64(len(e.CQ.Bin))
		c.evictions++
		mEvictions.Add(1)
	}
}

// Flush drops every entry (DDL invalidation) and returns how many were
// dropped. In-progress flights are unaffected: their fingerprints embed the
// old schema version, so once inserted they can never match a post-DDL
// lookup.
func (c *Cache) Flush() int {
	c.mu.Lock()
	n := c.lru.Len()
	c.lru.Init()
	c.byFP = map[string]*list.Element{}
	c.bytes = 0
	// Feedback was observed under the pre-DDL catalog statistics; decisions
	// after a schema change must start cold.
	c.fbOrder.Init()
	c.feedback = map[string]*list.Element{}
	c.invalidations += int64(n)
	c.mu.Unlock()
	mInvalidations.Add(int64(n))
	return n
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:            c.hits,
		Misses:          c.misses,
		Evictions:       c.evictions,
		Invalidations:   c.invalidations,
		Entries:         c.lru.Len(),
		CodeBytes:       c.bytes,
		FeedbackEntries: c.fbOrder.Len(),
	}
}

// MaxEntries returns the entry bound.
func (c *Cache) MaxEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxEntries
}

// SetLimits adjusts the bounds (values <= 0 select the defaults) and evicts
// immediately if the new bounds are tighter.
func (c *Cache) SetLimits(maxEntries int, maxBytes int64) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c.mu.Lock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evictLocked()
	for c.fbOrder.Len() > c.maxEntries*feedbackSlotsPerEntry {
		old := c.fbOrder.Back()
		c.fbOrder.Remove(old)
		delete(c.feedback, old.Value.(*fbSlot).fp)
	}
	c.mu.Unlock()
}
