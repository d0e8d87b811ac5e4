package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"wasmdb"
	"wasmdb/internal/obs"
)

// The serving layer's production telemetry: request IDs on every response,
// per-route SLO metrics, the Prometheus exposition endpoint, the structured
// query log, and the flight-recorder dump. All of it is always on — the
// flight recorder answers "what just happened" after the fact precisely
// because nobody opted in beforehand.

// ctxKey is the private context-key namespace of this package.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestIDHeader is honored when the client (or a fronting proxy) supplies
// it and generated otherwise; every response carries it back.
const RequestIDHeader = "X-Request-Id"

// RequestID returns the request ID the middleware assigned to r ("" outside
// the server's handler chain).
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID).(string)
	return id
}

// newRequestID mints a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Out of entropy — degrade to a timestamp rather than fail requests.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// routeLabel maps a request path onto the bounded route table used as the
// {route} metric label. Anything unrecognized folds into "other" so a path
// scanner cannot mint unbounded label values.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/v1/session", "/v1/set", "/v1/prepare", "/v1/query", "/v1/exec",
		"/v1/metrics", "/metrics", "/healthz", "/debug/flightrecorder":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/v1/session/"):
		return "/v1/session/{id}"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// statusWriter captures the response status for the request-metrics
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware wraps the route mux with the cross-cutting telemetry: assign or
// honor the request ID, stamp it on the response, and record per-route
// latency and status-code counts.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id))

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)

		route := routeLabel(r)
		obs.Default.HistogramWith(obs.MetricServerRequestLatency,
			obs.Label{Key: "route", Val: route},
		).Observe(time.Since(start).Nanoseconds())
		obs.Default.CounterWith(obs.MetricServerRequests,
			obs.Label{Key: "route", Val: route},
			obs.Label{Key: "code", Val: strconv.Itoa(sw.status)},
		).Add(1)
	})
}

// observeQuery feeds one finished query into the telemetry sinks: slow
// classification against Config.SlowQuery, then the flight recorder and the
// structured query log (both non-blocking; both nil-safe).
func (s *Server) observeQuery(rec wasmdb.QueryLogRecord, session string) {
	rec.Session = session
	if s.cfg.SlowQuery > 0 && rec.TotalNs >= s.cfg.SlowQuery.Nanoseconds() {
		rec.Slow = true
	}
	s.frec.Observe(rec)
	s.qlog.Observe(rec)
}

// handlePrometheus serves GET /metrics: the full registry — application
// series under wasmdb_, runtime health under go_* — in the Prometheus text
// exposition format.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	reg := s.db.Metrics()
	obs.CaptureRuntimeMetrics(reg)
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	_ = reg.WritePrometheus(w)
}

// handleMetricsV1 serves the legacy /v1/metrics endpoint: the expvar-style
// text dump. The Prometheus exposition is /metrics.
func (s *Server) handleMetricsV1(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s.db.Metrics().Dump()))
}

// handleFlightRecorder serves GET /debug/flightrecorder: the captured-query
// ring as JSON (entries plus a combined Chrome trace_event timeline), or the
// bare trace_event form under ?format=trace for direct Perfetto loading.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "trace" {
		_ = s.frec.WriteTraceEvents(w)
		return
	}
	_ = s.frec.WriteJSON(w)
}

// registerPprof exposes the net/http/pprof handlers on the service mux
// (Config.EnablePprof): CPU/heap/goroutine profiles for the process serving
// the queries, guarded behind the flag because profiles can carry SQL text.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
