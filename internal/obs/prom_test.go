package obs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// parseProm parses Prometheus text exposition into sample lines keyed by the
// full series syntax, validating the format invariants as it goes: every
// sample is preceded by HELP and TYPE for its family, label blocks are
// well-formed, values parse, histogram buckets are cumulative and end in +Inf.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	described := map[string]string{} // family → type
	var lastBucketFamily string
	var lastCum float64
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			described[parts[0]] = ""
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typ := parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			if _, ok := described[parts[0]]; !ok {
				t.Fatalf("line %d: TYPE before HELP for %s", ln+1, parts[0])
			}
			described[parts[0]] = typ
			continue
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		var val float64
		if valStr == "+Inf" {
			t.Fatalf("line %d: +Inf as sample value", ln+1)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, series)
			}
		}
		// Resolve the family: histogram samples append _bucket/_sum/_count.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && described[trimmed] == "histogram" {
				family = trimmed
			}
		}
		typ, ok := described[family]
		if !ok {
			t.Fatalf("line %d: sample for undescribed family %q", ln+1, family)
		}
		if strings.HasSuffix(name, "_bucket") && typ == "histogram" {
			if family != lastBucketFamily {
				lastBucketFamily, lastCum = family, 0
			}
			if val < lastCum {
				t.Fatalf("line %d: non-cumulative bucket: %q (%g < %g)", ln+1, line, val, lastCum)
			}
			lastCum = val
			if strings.Contains(series, `le="+Inf"`) {
				lastBucketFamily, lastCum = "", 0
			}
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = val
	}
	return samples
}

// TestPrometheusExposition exercises the renderer end to end on a fresh
// registry: labeled counters, gauges, and an _ns histogram,
// checking the exact line set against a golden expectation.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterWith(MetricQueries, Label{"backend", "wasm-adaptive"}).Add(3)
	r.CounterWith(MetricSerialFallbacks, Label{"reason", "limit"}).Add(2)
	r.Gauge(MetricSchedSlotsAvail).Set(5)
	h := r.HistogramWith(MetricQueryLatency,
		Label{"backend", "wasm-adaptive"}, Label{"tier", "mixed"}, Label{"cache", "hit"})
	h.Observe(1000) // bits.Len64(1000)=10 → bucket 10, le=1023ns
	h.Observe(3000) // bits.Len64(3000)=12 → bucket 12, le=4095ns

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := parseProm(t, buf.String())

	want := map[string]float64{
		`wasmdb_queries_total{backend="wasm-adaptive"}`: 3,
		`wasmdb_serial_fallback_total{reason="limit"}`:  2,
		`wasmdb_sched_slots_avail`:                      5,
		`wasmdb_query_latency_seconds_bucket{backend="wasm-adaptive",cache="hit",tier="mixed",le="1.023e-06"}`: 1,
		`wasmdb_query_latency_seconds_bucket{backend="wasm-adaptive",cache="hit",tier="mixed",le="4.095e-06"}`: 2,
		`wasmdb_query_latency_seconds_bucket{backend="wasm-adaptive",cache="hit",tier="mixed",le="+Inf"}`:      2,
		`wasmdb_query_latency_seconds_sum{backend="wasm-adaptive",cache="hit",tier="mixed"}`:                   4e-06,
		`wasmdb_query_latency_seconds_count{backend="wasm-adaptive",cache="hit",tier="mixed"}`:                 2,
	}
	for series, v := range want {
		gv, ok := got[series]
		if !ok {
			var all []string
			for s := range got {
				all = append(all, s)
			}
			sort.Strings(all)
			t.Fatalf("missing series %q; got:\n%s", series, strings.Join(all, "\n"))
		}
		if gv != v {
			t.Errorf("series %s = %g, want %g", series, gv, v)
		}
	}
	// Empty-bucket suppression: only occupied power-of-two buckets (plus +Inf)
	// render, so the 2-sample histogram emits buckets 10..12, not 64 lines.
	buckets := 0
	for s := range got {
		if strings.HasPrefix(s, "wasmdb_query_latency_seconds_bucket") {
			buckets++
		}
	}
	if buckets != 3 { // le=1.023e-06, le=4.095e-06, +Inf
		t.Errorf("bucket lines = %d, want 3", buckets)
	}
}

// TestPrometheusLabelEscaping: quotes, backslashes, and newlines in label
// values must be escaped per the exposition format.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("esc_total", Label{"k", "a\"b\\c\nd"}).Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `wasmdb_esc_total{k="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, buf.String())
	}
}

// TestLabelCardinalityBounded: a churning label value must not grow a family
// past maxSeriesPerFamily — overflow folds into one {overflow="true"} series,
// and the exposition stays bounded too.
func TestLabelCardinalityBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 10*maxSeriesPerFamily; i++ {
		r.CounterWith("churn_total", Label{"id", fmt.Sprintf("v%d", i)}).Add(1)
	}
	if n := r.SeriesCount("churn_total"); n > maxSeriesPerFamily+1 {
		t.Fatalf("family grew to %d series, cap is %d", n, maxSeriesPerFamily+1)
	}
	over := r.Counter(overflowName("churn_total")).Value()
	if over != int64(10*maxSeriesPerFamily-maxSeriesPerFamily) {
		t.Errorf("overflow series absorbed %d, want %d", over, 9*maxSeriesPerFamily)
	}
	// Re-touching an admitted series must still find it (not the overflow).
	if v := r.CounterWith("churn_total", Label{"id", "v0"}).Value(); v != 1 {
		t.Errorf("admitted series v0 = %d, want 1", v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "wasmdb_churn_total{") {
			lines++
		}
	}
	if lines > maxSeriesPerFamily+1 {
		t.Errorf("exposition rendered %d churn series, cap is %d", lines, maxSeriesPerFamily+1)
	}
}

// TestResolvedSeriesLookup: a label set seen before resolves to its series
// without formatting a name — no allocation — in any label order, while the
// family cap holds as before: a label set past the cap still gets the
// overflow series, and is not remembered, so the table of resolved label
// sets stays within the cap too.
func TestResolvedSeriesLookup(t *testing.T) {
	r := NewRegistry()
	labels := []Label{{"backend", "auto"}, {"tier", "turbofan"}, {"cache", "hit"}}
	h := r.HistogramWith("lat_ns", labels...)
	if n := testing.AllocsPerRun(100, func() {
		if r.HistogramWith("lat_ns", Label{"backend", "auto"}, Label{"tier", "turbofan"}, Label{"cache", "hit"}) != h {
			t.Fatal("a repeated lookup resolved to another series")
		}
	}); n != 0 {
		t.Errorf("a repeated labeled lookup allocates %v times, want 0", n)
	}
	if r.HistogramWith("lat_ns", labels[2], labels[0], labels[1]) != h {
		t.Error("another label order resolved to another series")
	}
	for i := 0; i < 10*maxSeriesPerFamily; i++ {
		r.CounterWith("churn_total", Label{"id", fmt.Sprintf("v%d", i)})
	}
	over := r.Counter(overflowName("churn_total"))
	if r.CounterWith("churn_total", Label{"id", "v999999"}) != over {
		t.Error("a label set past the cap did not get the overflow series")
	}
	if r.CounterWith("churn_total", Label{"id", "v0"}) == over {
		t.Error("an admitted label set resolved to the overflow series")
	}
	if n := len(r.resolved); n > maxSeriesPerFamily+2 {
		t.Errorf("%d label sets remembered, want at most the cap %d plus lat_ns's two orders", n, maxSeriesPerFamily)
	}
}

// TestSeriesNameCanonical: label order must not mint distinct series.
func TestSeriesNameCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.CounterWith("x_total", Label{"a", "1"}, Label{"b", "2"})
	b := r.CounterWith("x_total", Label{"b", "2"}, Label{"a", "1"})
	if a != b {
		t.Error("label order minted two series")
	}
	if n := r.SeriesCount("x_total"); n != 1 {
		t.Errorf("series count = %d, want 1", n)
	}
}

// TestCaptureRuntimeMetrics: the go_* gauges appear un-prefixed and sane.
func TestCaptureRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	CaptureRuntimeMetrics(r)
	if g := r.Gauge("go_goroutines").Value(); g < 1 {
		t.Errorf("go_goroutines = %d", g)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wasmdb_go_") {
		t.Error("runtime metrics must not get the wasmdb_ prefix")
	}
	parseProm(t, buf.String())
}
