package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) generated straight from
// the registry — no client library, no HTTP: the server layer wires this
// io.Writer renderer to GET /metrics, and internal/obs stays stdlib-only and
// transport-free (enforced by `make lint-layers`).
//
// Naming: application metrics are exported under the wasmdb_ namespace;
// runtime metrics captured by CaptureRuntimeMetrics keep their conventional
// go_ names. Histograms whose base name ends in _ns are exported as
// Prometheus-idiomatic _seconds histograms (power-of-two nanosecond buckets
// scaled to seconds). A labeled series' registry key already is its
// exposition syntax (base{k="v",...}).

// ContentTypePrometheus is the Content-Type of the exposition format.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// helpText documents the exported families; families not listed get a
// generic line (every family always has HELP and TYPE — self-describing
// output is part of the exposition contract).
var helpText = map[string]string{
	MetricQueries:                   "Queries executed, by backend.",
	MetricCompiles:                  "Functions compiled, by engine tier.",
	MetricTierUpLatency:             "Latency from liftoff publish to each function's turbofan tier-up.",
	MetricTurbofanFailures:          "Background optimizing compiles that failed (query degraded to liftoff).",
	MetricFuelConsumed:              "Fuel units consumed against explicit WithFuel budgets.",
	MetricPeakHeapPages:             "High-water linear-memory pages of the most memory-hungry query.",
	MetricPagesCommitted:            "Module-owned linear-memory pages committed (allocated on first touch) by queries.",
	MetricMorselLatency:             "Per-morsel dispatch latency.",
	MetricFaultpointHits:            "Armed fault-injection points evaluated, by point.",
	MetricPlanCacheHits:             "Plan-cache lookups that reused a cached module.",
	MetricPlanCacheMisses:           "Plan-cache lookups that compiled.",
	MetricPlanCacheEvictions:        "Plan-cache entries dropped by the LRU budget.",
	"plancache_invalidations_total": "Plan-cache entries dropped by DDL invalidation.",
	MetricSchedLeases:               "Worker-slot leases granted by the shared morsel scheduler.",
	MetricSchedDenied:               "Parallel requests denied by the scheduler (forced-serial fallback).",
	MetricSchedYields:               "Worker slots revoked at morsel boundaries for a newer query's fair share.",
	MetricSchedSlotsAvail:           "Free extra-worker slots in the shared morsel scheduler.",
	MetricSchedSlotsTotal:           "Total extra-worker slots in the shared morsel scheduler.",
	MetricServerAdmitted:            "Queries admitted past the server's admission gate.",
	MetricServerRejected:            "Requests shed by admission control, by reason.",
	MetricServerQueueDepth:          "Requests waiting in the bounded admission queue.",
	MetricServerActive:              "Queries currently executing.",
	MetricServerSessions:            "Open sessions.",
	MetricServerAdmissionWait:       "Time spent waiting in the admission queue.",
	MetricServerQueryLatency:        "End-to-end /v1/query latency including admission wait.",
	MetricQueryLatency:              "Query latency by backend, final dispatch tier, and plan-cache outcome.",
	MetricServerRequestLatency:      "HTTP request latency by route.",
	MetricServerRequests:            "HTTP requests by route and status code.",
	MetricSerialFallbacks:           "Parallelism requests that ran serially, by fallback reason.",
	MetricEngineCompileLatency:      "Engine compile latency by tier.",
	MetricEngineCodeInstrs:          "Instructions emitted by the engine's compilers, by tier.",
	MetricServerDraining:            "1 while the server is draining for shutdown, else 0.",
	MetricQuerylogRecords:           "Structured query-log records emitted.",
	MetricQuerylogDropped:           "Query-log records dropped on sink-queue overflow.",
	MetricFlightRecords:             "Flight-recorder captures, by reason (sampled, slow, error).",
	"go_goroutines":                 "Number of goroutines.",
	"go_heap_alloc_bytes":           "Bytes of allocated heap objects.",
	"go_heap_sys_bytes":             "Bytes of heap memory obtained from the OS.",
	"go_gc_cycles":                  "Completed GC cycles.",
	"go_gc_pause_total_ns":          "Cumulative GC stop-the-world pause time in nanoseconds.",
}

// promSeries is one series of a family: its rendered label block (possibly
// empty) plus either a scalar value or a histogram snapshot.
type promSeries struct {
	labels string // rendered: {k="v",...} or ""
	value  int64
	hist   *HistSnapshot
}

// promFamily groups the series sharing one exported name.
type promFamily struct {
	name   string // exported Prometheus name
	typ    string // counter | gauge | histogram
	help   string
	scale  float64 // value divisor (1e9 for _ns → _seconds histograms)
	series []promSeries
}

// splitSeries decomposes a registry key into base name and rendered labels.
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// promName maps a base name to its exported name and value divisor
// (1e9 for _ns histograms exported as _seconds).
func promName(base string, hist bool) (string, float64) {
	name, div := base, 1.0
	if hist && strings.HasSuffix(base, "_ns") {
		name, div = strings.TrimSuffix(base, "_ns")+"_seconds", 1e9
	}
	if !strings.HasPrefix(name, "go_") {
		name = "wasmdb_" + name
	}
	return name, div
}

// formatValue renders a scaled sample. Division (not multiplication by a
// non-representable 1e-9) keeps the result correctly rounded, so 4095ns
// prints as 4.095e-06, not 4.095000000000001e-06.
func formatValue(v int64, div float64) string {
	if div == 1.0 {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(float64(v)/div, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by family and series, with HELP and TYPE lines per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot under the registry lock; render outside it.
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	r.mu.Unlock()

	fams := map[string]*promFamily{}
	family := func(base, typ string, hist bool) *promFamily {
		name, scale := promName(base, hist)
		f := fams[name]
		if f == nil {
			help := helpText[base]
			if help == "" {
				help = "wasmdb metric " + base + "."
			}
			f = &promFamily{name: name, typ: typ, help: help, scale: scale}
			fams[name] = f
		}
		return f
	}
	for name, v := range counters {
		base, labels := splitSeries(name)
		typ := "counter"
		if !strings.HasSuffix(base, "_total") {
			typ = "gauge" // a counter without the _total convention scrapes as a gauge
		}
		f := family(base, typ, false)
		f.series = append(f.series, promSeries{labels: labels, value: v})
	}
	for name, v := range gauges {
		base, labels := splitSeries(name)
		f := family(base, "gauge", false)
		f.series = append(f.series, promSeries{labels: labels, value: v})
	}
	for name, h := range hists {
		base, labels := splitSeries(name)
		f := family(base, "histogram", true)
		snap := h
		f.series = append(f.series, promSeries{labels: labels, hist: &snap})
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			if s.hist != nil {
				err = writeHistSeries(w, f, s)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.value, f.scale))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistSeries renders one histogram series: cumulative power-of-two
// buckets up to the highest occupied one, the +Inf bucket, then sum and
// count. Bucket i of the registry histogram holds observations v with
// 2^(i-1) <= v < 2^i, so its inclusive upper bound is 2^i - 1; boundaries
// are scaled like the sum (nanoseconds → seconds for _ns families).
func writeHistSeries(w io.Writer, f *promFamily, s promSeries) error {
	// Splice "le" into the series' existing label block.
	leLabels := func(le string) string {
		if s.labels == "" {
			return `{le="` + le + `"}`
		}
		return strings.TrimSuffix(s.labels, "}") + `,le="` + le + `"}`
	}
	// Empty buckets add no information to a cumulative histogram (the
	// running total is unchanged), so only occupied buckets render — a
	// 64-bucket histogram with two samples emits two lines, not 64.
	var cum int64
	for i, c := range s.hist.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		bound := float64(uint64(1)<<uint(i)-1) / f.scale
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, leLabels(strconv.FormatFloat(bound, 'g', -1, 64)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, leLabels("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.hist.Sum, f.scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, cum)
	return err
}

// CaptureRuntimeMetrics snapshots process runtime health — goroutines, heap,
// GC — into conventional go_* gauges of r. The server calls it on every
// metrics scrape, so the exposition carries fresh values without a sampler
// goroutine.
func CaptureRuntimeMetrics(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge("go_goroutines").Set(int64(runtime.NumGoroutine()))
	r.Gauge("go_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	r.Gauge("go_heap_sys_bytes").Set(int64(ms.HeapSys))
	r.Gauge("go_gc_cycles").Set(int64(ms.NumGC))
	r.Gauge("go_gc_pause_total_ns").Set(int64(ms.PauseTotalNs))
}

// registryJSON is the machine-readable form served by the legacy
// /v1/metrics endpoint under Accept: application/json.
type registryJSON struct {
	Counters   map[string]int64       `json:"counters"`
	Gauges     map[string]int64       `json:"gauges"`
	Histograms map[string]histSummary `json:"histograms"`
}

type histSummary struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Mean  int64 `json:"mean"`
	Max   int64 `json:"max"`
}

// WriteJSON renders the registry as one JSON object: counters and gauges by
// name, histograms as {count,sum,mean,max} summaries.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := registryJSON{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]histSummary{},
	}
	r.mu.Lock()
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		out.Histograms[name] = histSummary{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Max: h.Max()}
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
