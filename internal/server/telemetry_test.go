package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the query log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords parses the query log's JSON lines.
func logRecords(t *testing.T, text string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("query log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

// getBody issues a GET and returns status, body, and headers.
func getBody(t *testing.T, url string, hdr map[string]string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// TestPrometheusEndpoint: GET /metrics serves valid exposition-format text
// including the labeled query-latency histogram and runtime go_* gauges.
func TestPrometheusEndpoint(t *testing.T) {
	_, hs := newServer(t, Config{})
	status, _, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	if status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}

	code, body, hdr := getBody(t, hs.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE wasmdb_query_latency_seconds histogram",
		`wasmdb_query_latency_seconds_bucket{backend="wasm-adaptive"`,
		`cache=`, `tier=`, `le=`,
		"# TYPE wasmdb_server_requests_total counter",
		`wasmdb_server_requests_total{code="200",route="/v1/query"}`,
		"# TYPE go_goroutines gauge",
		"wasmdb_server_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// HELP precedes every family; spot-check shape with a strict line scan.
	sawHelp := false
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP wasmdb_query_latency_seconds ") {
			sawHelp = true
		}
		if !strings.HasPrefix(line, "# ") && strings.Count(line, " ") < 1 {
			t.Errorf("malformed sample line: %q", line)
		}
	}
	if !sawHelp {
		t.Error("no HELP line for wasmdb_query_latency_seconds")
	}
}

// TestMetricsV1ContentNegotiation: the legacy endpoint has one format, the
// text dump, whatever the Accept header asks for; the Prometheus exposition
// is /metrics.
func TestMetricsV1ContentNegotiation(t *testing.T) {
	_, hs := newServer(t, Config{})
	call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT 1 FROM t LIMIT 1"})

	for _, accept := range []string{"", "application/json", obs.ContentTypePrometheus, "application/openmetrics-text"} {
		_, body, hdr := getBody(t, hs.URL+"/v1/metrics", map[string]string{"Accept": accept})
		if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; charset=utf-8") ||
			!strings.Contains(body, `queries_total{backend="wasm-adaptive"}:`) || strings.Contains(body, "# TYPE") {
			t.Errorf("Accept %q: /v1/metrics is not the legacy dump (Content-Type %q)", accept, hdr.Get("Content-Type"))
		}
	}
}

// TestRequestIDs: every response carries X-Request-Id — honored when the
// client supplies one, generated otherwise — and it threads into the query
// log and the flight-recorder trace.
func TestRequestIDs(t *testing.T) {
	qlog := &syncBuffer{}
	s, hs := newServer(t, Config{QueryLogWriter: qlog, TraceSampleEvery: 1})

	// Generated when absent, on every route.
	_, _, hdr := getBody(t, hs.URL+"/healthz", nil)
	if hdr.Get("X-Request-Id") == "" {
		t.Error("no generated X-Request-Id on /healthz")
	}

	// Honored when present, and threaded into the telemetry.
	req, _ := http.NewRequest("POST", hs.URL+"/v1/query",
		strings.NewReader(`{"sql": "SELECT COUNT(*) FROM t"}`))
	req.Header.Set("X-Request-Id", "test-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "test-req-7" {
		t.Errorf("supplied request ID not echoed: %q", got)
	}

	waitFor(t, "query-log record with request ID", func() bool {
		return strings.Contains(qlog.String(), "test-req-7")
	})
	recs := logRecords(t, qlog.String())
	found := false
	for _, r := range recs {
		if r["request_id"] == "test-req-7" {
			found = true
			if r["sql"] != "SELECT COUNT(*) FROM t" {
				t.Errorf("record sql = %v", r["sql"])
			}
		}
	}
	if !found {
		t.Fatalf("request ID not in query log: %s", qlog.String())
	}
	// TraceSampleEvery=1 captures everything: the trace lane carries the ID.
	var buf bytes.Buffer
	if err := s.FlightRecorder().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test-req-7") {
		t.Error("request ID not in flight-recorder trace")
	}
}

// TestSlowAndErroredQueriesCaptured is the acceptance e2e: a slow query
// (over threshold) and an errored query each produce a structured query-log
// record and a retrievable flight-recorder trace.
func TestSlowAndErroredQueriesCaptured(t *testing.T) {
	qlog := &syncBuffer{}
	// SlowQuery=1ns: everything that executes classifies slow. Sampling off:
	// captures must come from the slow/error paths alone.
	_, hs := newServer(t, Config{QueryLogWriter: qlog, SlowQuery: time.Nanosecond, TraceSampleEvery: -1})

	status, _, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	if status != http.StatusOK {
		t.Fatalf("slow query status %d", status)
	}
	status, _, _ = call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT nope FROM t"})
	if status != http.StatusBadRequest {
		t.Fatalf("errored query status %d", status)
	}

	waitFor(t, "two query-log records", func() bool { return len(logRecords(t, qlog.String())) >= 2 })
	recs := logRecords(t, qlog.String())
	var slow, errored map[string]any
	for _, r := range recs {
		if r["error"] != nil {
			errored = r
		} else if r["slow"] == true {
			slow = r
		}
	}
	if slow == nil {
		t.Fatalf("no slow record in log: %s", qlog.String())
	}
	if errored == nil {
		t.Fatalf("no errored record in log: %s", qlog.String())
	}
	// The slow record carries the full latency breakdown and adaptive fields.
	for _, key := range []string{"query_hash", "plan_fingerprint", "backend", "tier",
		"plan_cache", "parse_ns", "compile_ns", "execute_ns", "total_ns"} {
		if _, ok := slow[key]; !ok {
			t.Errorf("slow record missing %q: %v", key, slow)
		}
	}
	if errored["query_hash"] == nil || !strings.Contains(errored["error"].(string), "nope") {
		t.Errorf("errored record malformed: %v", errored)
	}

	// Both are retrievable from the flight recorder over HTTP.
	code, body, _ := getBody(t, hs.URL+"/debug/flightrecorder", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/flightrecorder: %d", code)
	}
	var dump struct {
		Entries []obs.FlightEntry `json:"entries"`
		Trace   struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("flight dump not JSON: %v", err)
	}
	var sawSlow, sawError bool
	for _, e := range dump.Entries {
		switch e.Reason {
		case obs.CaptureSlow:
			sawSlow = true
		case obs.CaptureError:
			sawError = true
		}
	}
	if !sawSlow || !sawError {
		t.Fatalf("flight recorder missing captures: slow=%v error=%v", sawSlow, sawError)
	}
	if len(dump.Trace.TraceEvents) == 0 {
		t.Error("flight dump carries no trace events")
	}
	// And as a bare Chrome trace for Perfetto.
	code, body, _ = getBody(t, hs.URL+"/debug/flightrecorder?format=trace", nil)
	if code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("trace format dump: %d %q", code, body[:min(80, len(body))])
	}
}

// TestRejectedRequestsGetRequestIDs: shed requests still carry request IDs
// and land in the per-route metrics (the 429 path is exactly when operators
// need them).
func TestRejectedRequestsGetRequestIDs(t *testing.T) {
	faultpoint.Enable(FPAdmissionReject, faultpoint.Always(errors.New("injected admission failure")))
	defer faultpoint.Disable(FPAdmissionReject)
	_, hs := newServer(t, Config{})
	before := obs.Default.CounterWith(obs.MetricServerRequests,
		obs.Label{Key: "route", Val: "/v1/query"}, obs.Label{Key: "code", Val: "429"}).Value()
	req, _ := http.NewRequest("POST", hs.URL+"/v1/query", strings.NewReader(`{"sql":"SELECT 1 FROM t"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("shed request has no request ID")
	}
	after := obs.Default.CounterWith(obs.MetricServerRequests,
		obs.Label{Key: "route", Val: "/v1/query"}, obs.Label{Key: "code", Val: "429"}).Value()
	if after != before+1 {
		t.Errorf("429 not counted in server_requests_total: %d → %d", before, after)
	}
}

// TestPprofGated: /debug/pprof/ is 404 by default and served when enabled.
func TestPprofGated(t *testing.T) {
	_, hs := newServer(t, Config{})
	code, _, _ := getBody(t, hs.URL+"/debug/pprof/", nil)
	if code != http.StatusNotFound {
		t.Errorf("pprof served without EnablePprof: %d", code)
	}
	_, hs2 := newServer(t, Config{EnablePprof: true})
	code, body, _ := getBody(t, hs2.URL+"/debug/pprof/", nil)
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index not served when enabled: %d", code)
	}
}

// TestQueryLogClosedOnShutdown: Shutdown flushes and stops the query-log
// flusher (the package TestMain leak sweep would catch a stray goroutine;
// this asserts flushing too).
func TestQueryLogClosedOnShutdown(t *testing.T) {
	qlog := &syncBuffer{}
	s, hs := newServer(t, Config{QueryLogWriter: qlog})
	call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if len(logRecords(t, qlog.String())) == 0 {
		t.Error("query log not flushed by Shutdown")
	}
	// Idempotent: the test-cleanup Shutdown must not panic on the closed log.
}

// BenchmarkServerQueryTelemetryOff and ...Full price the serving layer's
// telemetry at its most expensive setting — a query-log sink, the flight
// recorder capturing every query, every query classified slow — against the
// default server. make bench-smoke fails if Full's best-of-3 ns/op exceeds
// Off's by more than 5%.
func BenchmarkServerQueryTelemetryOff(b *testing.B) { benchQueryTelemetry(b, Config{}) }

func BenchmarkServerQueryTelemetryFull(b *testing.B) {
	benchQueryTelemetry(b, Config{QueryLogWriter: io.Discard, TraceSampleEvery: 1, SlowQuery: time.Nanosecond})
}

// benchQueryTelemetry times one parameterized /v1/query per op over TPC-H
// SF 0.01's lineitem, every one a plan-cache hit with a new literal.
func benchQueryTelemetry(b *testing.B, cfg Config) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		b.Fatal(err)
	}
	_, hs := serveDB(b, db, cfg)
	query := func(i int) {
		status, m, _, err := callE(hs, "POST", "/v1/query", map[string]any{
			"sql":  "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ?",
			"args": []any{1 + i%50},
		})
		if err != nil || status != http.StatusOK {
			b.Fatalf("query: %d %v %v", status, m, err)
		}
	}
	query(0)
	for i := 0; b.Loop(); i++ {
		query(i)
	}
}

// TestDefaultTelemetryAllocatesNothing is the exact half of the telemetry
// budget make bench-smoke times: on the default server, handing a finished
// query to the telemetry sinks — slow classification, the flight recorder
// and the absent query log — allocates nothing, whichever way the recorder
// decides. AllocsPerRun floors its average, so each case takes one branch on
// every run: errored and slow queries are always captured, and the ordinary
// query is checked with sampling off (never captured) and at a 1-in-1
// sample (always captured), the two halves of the default 1-in-64.
func TestDefaultTelemetryAllocatesNothing(t *testing.T) {
	ordinary := wasmdb.QueryLogRecord{SQL: "SELECT COUNT(*) FROM t", TotalNs: 1000}
	for _, c := range []struct {
		name        string
		sampleEvery int
		rec         wasmdb.QueryLogRecord
	}{
		{"errored", 0, wasmdb.QueryLogRecord{SQL: "SELECT x FROM nowhere", Error: "no such table"}},
		{"slow", 0, wasmdb.QueryLogRecord{SQL: "SELECT COUNT(*) FROM t", Slow: true}},
		{"not sampled", -1, ordinary},
		{"sampled", 1, ordinary},
	} {
		s := New(wasmdb.Open(), Config{TraceSampleEvery: c.sampleEvery})
		if allocs := testing.AllocsPerRun(100, func() { s.observeQuery(c.rec, "s1") }); allocs != 0 {
			t.Errorf("%s query: observeQuery allocates %.1f times", c.name, allocs)
		}
	}
}
