package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Standard metric names. A family with a dimension (backend, tier,
// fault-point name, reason) is recorded with CounterWith and a Label:
// queries_total{backend="wasm-adaptive"}.
const (
	MetricQueries          = "queries_total"         // {backend}
	MetricCompiles         = "engine_compiles_total" // {tier}, per function
	MetricTierUpLatency    = "engine_tierup_latency_ns"
	MetricTurbofanFailures = "engine_turbofan_failures_total"
	MetricFuelConsumed     = "core_fuel_consumed_total"
	MetricPeakHeapPages    = "core_peak_heap_pages"
	MetricPagesCommitted   = "wmem_pages_committed"
	MetricPagesRecycled    = "wmem_pages_recycled"
	MetricPagesFresh       = "wmem_pages_fresh"
	MetricMorselLatency    = "core_morsel_latency_ns"
	MetricFaultpointHits   = "faultpoint_hits_total" // {point}

	// Plan-cache outcomes: lookups that found a live compiled module, lookups
	// that compiled, entries dropped by the LRU budget, and entries dropped by
	// DDL invalidation.
	MetricPlanCacheHits          = "plancache_hits_total"
	MetricPlanCacheMisses        = "plancache_misses_total"
	MetricPlanCacheEvictions     = "plancache_evictions_total"
	MetricPlanCacheInvalidations = "plancache_invalidations_total"

	// Global morsel scheduler: leases granted, parallel requests denied
	// (forced-serial fallback), slots revoked at morsel boundaries for a
	// newer query's fair share, and the pool's free-slot gauge.
	MetricSchedLeases     = "sched_leases_total"
	MetricSchedDenied     = "sched_denied_total"
	MetricSchedYields     = "sched_yields_total"
	MetricSchedSlotsAvail = "sched_slots_avail"

	// Query service: admission outcomes (server_rejected_total{reason}
	// carries queue-full, queue-timeout, session-quota, shutdown,
	// faultpoint), queue and in-flight gauges, session count, and the
	// admission-wait / end-to-end latency histograms.
	MetricServerAdmitted      = "server_admitted_total"
	MetricServerRejected      = "server_rejected_total" // {reason}
	MetricServerQueueDepth    = "server_queue_depth"
	MetricServerActive        = "server_active_queries"
	MetricServerSessions      = "server_sessions"
	MetricServerAdmissionWait = "server_admission_wait_ns"
	MetricServerQueryLatency  = "server_query_latency_ns"

	// Production-telemetry SLO metrics, recorded with explicit labels (see
	// Label and the *With registry methods). query_latency_ns carries the
	// end-to-end latency of every query labeled by backend, final dispatch
	// tier, and plan-cache outcome; the server_request_* family carries the
	// HTTP front-end's per-route SLO series; serial_fallback_total and
	// engine_compile_latency_ns break down the adaptive engine's choices.
	MetricQueryLatency         = "query_latency_ns"          // {backend,tier,cache}
	MetricServerRequestLatency = "server_request_latency_ns" // {route}
	MetricServerRequests       = "server_requests_total"     // {route,code}
	MetricSerialFallbacks      = "serial_fallback_total"     // {reason}
	MetricAutopilotDecisions   = "autopilot_decisions_total" // {choice}
	MetricEngineCompileLatency = "engine_compile_latency_ns" // {tier}
	MetricEngineCodeInstrs     = "engine_code_instrs"        // {tier}
	MetricSchedSlotsTotal      = "sched_slots_total"
	MetricServerDraining       = "server_draining"

	// Query-log and flight-recorder self-metrics: records emitted by the
	// structured query log, records dropped on queue overflow (the sink must
	// never block a query), and flight-recorder captures by reason.
	MetricQuerylogRecords = "querylog_records_total"
	MetricQuerylogDropped = "querylog_dropped_total"
	MetricFlightRecords   = "flightrec_records_total" // {reason}
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (high-water mark semantics).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i.
const histBuckets = 64

// Histogram is a lock-free power-of-two latency histogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample (negative samples clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
	h.buckets[bits.Len64(uint64(v))%histBuckets].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram's state, taken
// bucket-by-bucket with atomic loads. Concurrent observers may land between
// loads, so Count may trail the bucket sum by in-flight observations — the
// exposition layer reconciles by trusting the buckets.
type HistSnapshot struct {
	Count, Sum, Max int64
	Buckets         [histBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Value()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest sample seen.
func (h *Histogram) Max() int64 { return h.max.Value() }

// Mean returns the average sample (0 with no samples).
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Registry is a process-wide set of named metrics. Lookups get-or-create
// under a mutex; the returned handles then update atomically, so hot paths
// resolve their handle once (package init) and never touch the lock again.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// families counts live labeled series per base name, enforcing
	// maxSeriesPerFamily so a buggy (or hostile) label value can never grow
	// the registry without bound.
	families map[string]int
	// resolved remembers the series each label set passed to a *With
	// lookup resolved to, so a repeated lookup formats no series name.
	// Series are never removed, so a resolution never changes. Only label
	// sets with a series of their own are kept: those folded into a full
	// family's overflow series are not, so resolved stays bounded by the
	// family cap too.
	resolved map[seriesKey]any
}

// seriesKey is a *With lookup's arguments as given: the metric kind, the
// base name and up to maxKeyLabels labels in the caller's order (n of them).
type seriesKey struct {
	kind   byte
	base   string
	n      int
	labels [maxKeyLabels]Label
}

// maxKeyLabels bounds the label sets resolved stores; a lookup with more
// labels formats its series name every time.
const maxKeyLabels = 4

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		families: map[string]int{},
		resolved: map[seriesKey]any{},
	}
}

// Default is the process-wide registry (what DB.Metrics returns).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Label is one key/value dimension on a labeled metric series. Values must
// come from small fixed sets (backend names, tiers, route patterns, reason
// codes): the registry caps live series per family at maxSeriesPerFamily and
// folds the overflow into a single {overflow="true"} series, so unbounded
// values degrade visibly instead of growing the registry without bound.
type Label struct{ Key, Val string }

// maxSeriesPerFamily bounds live labeled series per base metric name.
const maxSeriesPerFamily = 128

// seriesName renders the canonical registry key of a labeled series:
// base{k1="v1",k2="v2"} with keys sorted, matching the Prometheus series
// syntax so Dump output and exposition agree.
func seriesName(base string, labels []Label) string {
	if len(labels) == 0 {
		return base
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Val))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// overflowName is the fold-target series of a family at its cardinality cap.
func overflowName(base string) string {
	return base + `{overflow="true"}`
}

// admitSeries returns the series of a label set from the kind map, named
// name, creating it on first use under the family cap: once the family is
// full, a label set without a series of its own gets the family's overflow
// series. A resolution to a series of its own is remembered under key.
// Caller holds r.mu.
func admitSeries[M any](r *Registry, kind map[string]*M, key seriesKey, name string) *M {
	m, own := kind[name], true
	if m == nil {
		if r.families[key.base] >= maxSeriesPerFamily {
			name, own = overflowName(key.base), false
			m = kind[name]
		} else {
			r.families[key.base]++
		}
	}
	if m == nil {
		m = new(M)
		kind[name] = m
	}
	if own && key.n >= 0 {
		r.resolved[key] = m
	}
	return m
}

// keyOf is the resolved key of a *With lookup; its n is -1, and it is never
// stored, when there are more than maxKeyLabels labels.
func keyOf(kind byte, base string, labels []Label) seriesKey {
	key := seriesKey{kind: kind, base: base, n: -1}
	if len(labels) <= maxKeyLabels {
		key.n = copy(key.labels[:], labels)
	}
	return key
}

// CounterWith returns the counter series of base with the given labels,
// creating it on first use (subject to the per-family cardinality cap).
func (r *Registry) CounterWith(base string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := keyOf('c', base, labels)
	if c, ok := r.resolved[key]; ok {
		return c.(*Counter)
	}
	return admitSeries(r, r.counters, key, seriesName(base, labels))
}

// GaugeWith returns the gauge series of base with the given labels.
func (r *Registry) GaugeWith(base string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := keyOf('g', base, labels)
	if g, ok := r.resolved[key]; ok {
		return g.(*Gauge)
	}
	return admitSeries(r, r.gauges, key, seriesName(base, labels))
}

// HistogramWith returns the histogram series of base with the given labels.
func (r *Registry) HistogramWith(base string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := keyOf('h', base, labels)
	if h, ok := r.resolved[key]; ok {
		return h.(*Histogram)
	}
	return admitSeries(r, r.hists, key, seriesName(base, labels))
}

// SeriesCount returns the number of live series of a family (labeled series
// plus the unlabeled base metric, if present) — the cardinality bound tests
// and the exposition self-checks read it.
func (r *Registry) SeriesCount(base string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.families[base]
	if _, ok := r.counters[base]; ok {
		n++
	}
	if _, ok := r.gauges[base]; ok {
		n++
	}
	if _, ok := r.hists[base]; ok {
		n++
	}
	return n
}

// Dump renders every metric as one "name: value" line, sorted by name — the
// expvar-style text form served by the REPL's \metrics command.
func (r *Registry) Dump() string {
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s: %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s: %d", name, g.Value()))
	}
	for name, h := range r.hists {
		lines = append(lines, fmt.Sprintf("%s: count=%d sum=%d mean=%d max=%d",
			name, h.Count(), h.Sum(), h.Mean(), h.Max()))
	}
	r.mu.Unlock()
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
