// Package server is the concurrent query service over wasmdb.DB: an HTTP
// front-end with per-session state (prepared statements, \set-style
// options), a shared global morsel scheduler that multiplexes worker slots
// across concurrent queries, and admission control built for overload —
// a bounded, deadline-aware admission queue that sheds excess load with
// fast explicit rejections (never unbounded queueing), per-session
// concurrency/fuel/memory quotas, per-query timeouts with clean
// cancellation, and graceful shutdown that stops admitting, drains
// in-flight queries under a deadline, and only then cancels.
//
// Degradation order under pressure, strictly: new work is shed before
// queued work, queued work before in-flight work, and parallel queries
// degrade to serial (the scheduler's "worker-slots-exhausted" fallback)
// before anything is killed.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
)

// Faultpoint names of the serving path, armed by tests to exercise overload
// and mid-request failure paths deterministically (see internal/faultpoint).
const (
	// FPAdmissionReject forces the admission gate to reject the request.
	FPAdmissionReject = "server-admission-reject"
	// FPQueueFull forces the bounded-queue overflow path.
	FPQueueFull = "server-queue-full"
	// FPSessionCancel cancels the request's session just before execution —
	// a deterministic mid-request cancellation.
	FPSessionCancel = "server-session-cancel"
)

// StatusClientClosedRequest reports a query aborted by its own session being
// closed or the client disconnecting (nginx's 499 convention).
const StatusClientClosedRequest = 499

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing queries (default
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for an execution slot; arrivals
	// beyond it are rejected immediately with a queue-full error rather
	// than queued (default 4 × MaxConcurrent).
	MaxQueue int
	// QueueTimeout bounds how long an admitted-to-queue request may wait
	// for an execution slot before it is rejected (default 250ms). The
	// request's own deadline caps it further.
	QueueTimeout time.Duration
	// QueryTimeout bounds each query's wall-clock execution (default 30s;
	// sessions may set a shorter one with \set timeout).
	QueryTimeout time.Duration
	// SessionQuota bounds one session's concurrently executing queries
	// (default 4; <= 0 means unbounded).
	SessionQuota int
	// WorkerSlots sizes the shared global morsel scheduler (default
	// GOMAXPROCS extra-worker slots).
	WorkerSlots int
	// DefaultParallelism is the per-query worker request for sessions that
	// never \set parallelism (default 1 = serial).
	DefaultParallelism int

	// QueryLogWriter receives the structured query log — one JSON record per
	// executed query — through a non-blocking asynchronous sink. Nil disables
	// the log (the flight recorder still runs).
	QueryLogWriter io.Writer
	// SlowQuery is the slow-query threshold: queries at or over it are
	// flagged Slow in the log, promoted (rate-limited) to carry their full
	// span timeline, and always captured by the flight recorder (default
	// 500ms; < 0 disables slow classification).
	SlowQuery time.Duration
	// TraceSampleEvery captures one in N ordinary queries into the flight
	// recorder, in addition to every slow and errored query (default 64;
	// < 0 disables sampling).
	TraceSampleEvery int
	// FlightRecorderSize bounds the flight-recorder ring (default 256
	// entries; the oldest capture is evicted first).
	FlightRecorderSize int
	// EnablePprof exposes net/http/pprof under /debug/pprof/. Off by
	// default: profiles can carry SQL text.
	EnablePprof bool
}

func (c *Config) norm() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 250 * time.Millisecond
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.SessionQuota == 0 {
		c.SessionQuota = 4
	}
	if c.DefaultParallelism <= 0 {
		c.DefaultParallelism = 1
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 500 * time.Millisecond
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 64
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
}

// Server is the query service. Create with New, expose with Handler, stop
// with Shutdown.
type Server struct {
	db    *wasmdb.DB
	cfg   Config
	sched *wasmdb.Scheduler

	// sem holds one token per executing query; the admission queue is the
	// set of goroutines waiting on it, bounded by queued <= MaxQueue.
	sem    chan struct{}
	queued atomic.Int64

	// draining flips at Shutdown: the admission gate rejects everything
	// after it, and inflight drains to zero.
	draining atomic.Bool
	inflight sync.WaitGroup

	// baseCtx parents every session and anonymous query; cancelAll is the
	// shutdown deadline's last resort.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*session
	nextSess int

	// Telemetry: the structured query log (nil when no QueryLogWriter was
	// configured; Observe on a nil log is a no-op) and the always-on flight
	// recorder.
	qlog *obs.QueryLog
	frec *obs.FlightRecorder

	// Metrics handles, resolved once.
	mAdmitted *obs.Counter
	gQueue    *obs.Gauge
	gActive   *obs.Gauge
	gSessions *obs.Gauge
	gDraining *obs.Gauge
	hAdmit    *obs.Histogram
	hLatency  *obs.Histogram
}

// New creates a service over db. The db may be shared with other frontends;
// the server adds no state to it.
func New(db *wasmdb.DB, cfg Config) *Server {
	cfg.norm()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:        db,
		cfg:       cfg,
		sched:     wasmdb.NewScheduler(cfg.WorkerSlots),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:   baseCtx,
		cancelAll: cancel,
		sessions:  map[string]*session{},
		frec:      obs.NewFlightRecorder(cfg.FlightRecorderSize, cfg.TraceSampleEvery),
		mAdmitted: obs.Default.Counter(obs.MetricServerAdmitted),
		gQueue:    obs.Default.Gauge(obs.MetricServerQueueDepth),
		gActive:   obs.Default.Gauge(obs.MetricServerActive),
		gSessions: obs.Default.Gauge(obs.MetricServerSessions),
		gDraining: obs.Default.Gauge(obs.MetricServerDraining),
		hAdmit:    obs.Default.Histogram(obs.MetricServerAdmissionWait),
		hLatency:  obs.Default.Histogram(obs.MetricServerQueryLatency),
	}
	if cfg.QueryLogWriter != nil {
		s.qlog = obs.NewQueryLog(obs.NewWriterSink(cfg.QueryLogWriter), obs.QueryLogConfig{})
	}
	s.gDraining.Set(0)
	return s
}

// Scheduler returns the shared global morsel scheduler, for tests and for
// embedding frontends that execute queries outside the HTTP path.
func (s *Server) Scheduler() *wasmdb.Scheduler { return s.sched }

// FlightRecorder returns the server's flight recorder, for tests and for
// embedding frontends that want to dump it outside the HTTP path.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.frec }

// apiError is a typed, HTTP-mappable service error.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

var (
	errQueueFull = &apiError{http.StatusTooManyRequests, "queue-full",
		"server overloaded: admission queue full"}
	errQueueTimeout = &apiError{http.StatusTooManyRequests, "queue-timeout",
		"server overloaded: no execution slot within the queue deadline"}
	errShuttingDown = &apiError{http.StatusServiceUnavailable, "shutdown",
		"server is shutting down"}
	errSessionQuota = &apiError{http.StatusTooManyRequests, "session-quota",
		"session concurrency quota exhausted"}
	errSessionClosed = &apiError{http.StatusGone, "session-closed",
		"session is closed"}
	errUnknownSession = &apiError{http.StatusNotFound, "unknown-session",
		"unknown session"}
)

// reject counts one shed request under its reason label.
func reject(code string) {
	obs.Default.CounterWith(obs.MetricServerRejected, obs.Label{Key: "reason", Val: code}).Add(1)
}

// admit is the admission gate. It grants an execution slot or fails fast:
// the queue is bounded (MaxQueue waiters), the wait is bounded
// (QueueTimeout, capped by the request's own deadline), and once draining
// starts nothing new is admitted. The returned release func must be called
// exactly once after execution.
func (s *Server) admit(ctx context.Context) (release func(), wait time.Duration, err error) {
	if s.draining.Load() {
		reject(errShuttingDown.code)
		return nil, 0, errShuttingDown
	}
	if ferr := faultpoint.Hit(FPAdmissionReject); ferr != nil {
		reject("faultpoint")
		return nil, 0, &apiError{http.StatusTooManyRequests, "admission-reject",
			"admission rejected: " + ferr.Error()}
	}
	start := time.Now()
	admitted := false
	select {
	case s.sem <- struct{}{}:
		admitted = true
	default:
	}
	if !admitted {
		// Slow path: join the bounded queue.
		if ferr := faultpoint.Hit(FPQueueFull); ferr != nil {
			reject(errQueueFull.code)
			return nil, 0, errQueueFull
		}
		if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			reject(errQueueFull.code)
			return nil, 0, errQueueFull
		}
		s.gQueue.Set(s.queued.Load())
		timer := time.NewTimer(s.cfg.QueueTimeout)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			timer.Stop()
			s.gQueue.Set(s.queued.Add(-1))
			reject("canceled")
			return nil, 0, &apiError{StatusClientClosedRequest, "canceled",
				"request canceled while queued"}
		case <-timer.C:
			s.gQueue.Set(s.queued.Add(-1))
			reject(errQueueTimeout.code)
			return nil, 0, errQueueTimeout
		}
		timer.Stop()
		s.gQueue.Set(s.queued.Add(-1))
	}
	if s.draining.Load() {
		// Drain began while we held or waited for the slot: shed rather
		// than start new work the drain deadline would have to kill.
		<-s.sem
		reject(errShuttingDown.code)
		return nil, 0, errShuttingDown
	}
	wait = time.Since(start)
	s.hAdmit.Observe(wait.Nanoseconds())
	s.mAdmitted.Add(1)
	s.inflight.Add(1)
	s.gActive.Set(int64(len(s.sem)))
	return func() {
		<-s.sem
		s.gActive.Set(int64(len(s.sem)))
		s.inflight.Done()
	}, wait, nil
}

// Shutdown stops admitting new queries, waits for in-flight queries to
// drain, and — if ctx expires first — cancels them through the context
// plumbing (the PR-1 interrupt watchdog stops even mid-morsel guest code)
// and waits for the cancellations to land. It returns nil on a clean drain
// and ctx.Err() when force-cancellation was needed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.gDraining.Set(1)
	// The query log drains last — queries finishing during the drain still
	// log — and Close is idempotent, so a double Shutdown is safe.
	defer s.qlog.Close()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeAllSessions()
		return nil
	case <-ctx.Done():
	}
	// Drain deadline passed: cancel everything and wait for the interrupt
	// watchdogs to stop the stragglers. Cancellation reaches inside running
	// morsels, so this wait is short and bounded in practice; the grace
	// window exists so a wedged query cannot hang Shutdown forever.
	s.cancelAll()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("server: queries did not stop after cancellation: %w", ctx.Err())
	}
	s.closeAllSessions()
	return ctx.Err()
}

func (s *Server) closeAllSessions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ss := range s.sessions {
		ss.close()
		delete(s.sessions, id)
	}
	s.gSessions.Set(0)
}

// Handler returns the service's HTTP routes, wrapped in the telemetry
// middleware (request IDs + per-route SLO metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleSessionNew)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/set", s.handleSet)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/exec", s.handleExec)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsV1)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.EnablePprof {
		registerPprof(mux)
	}
	return s.middleware(mux)
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps an error to its HTTP shape. Overload rejections carry
// Retry-After so well-behaved clients back off.
func writeErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, ae.status, map[string]string{"error": ae.msg, "code": ae.code})
		return
	}
	status, code := http.StatusBadRequest, "query-error"
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "query-timeout"
	case errors.Is(err, context.Canceled):
		status, code = StatusClientClosedRequest, "canceled"
	case errors.Is(err, wasmdb.ErrFuelExhausted):
		status, code = http.StatusTooManyRequests, "fuel-exhausted"
	case errors.Is(err, wasmdb.ErrMemoryLimit):
		status, code = http.StatusTooManyRequests, "memory-limit"
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// decode parses a bounded JSON request body.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{http.StatusBadRequest, "bad-request", "invalid request body: " + err.Error()}
	}
	return nil
}

func (s *Server) handleSessionNew(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, errShuttingDown)
		return
	}
	s.mu.Lock()
	s.nextSess++
	id := "s" + strconv.Itoa(s.nextSess)
	ctx, cancel := context.WithCancel(s.baseCtx)
	ss := &session{
		id: id, ctx: ctx, cancel: cancel,
		backend:     wasmdb.BackendWasm,
		parallelism: s.cfg.DefaultParallelism,
		stmts:       map[string]*wasmdb.Stmt{},
	}
	s.sessions[id] = ss
	s.gSessions.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"session": id})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ss, ok := s.sessions[id]
	delete(s.sessions, id)
	s.gSessions.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	if !ok {
		writeErr(w, errUnknownSession)
		return
	}
	// Closing cancels the session's in-flight queries; their handlers
	// observe the cancellation and answer 499 — no half-written responses.
	ss.close()
	writeJSON(w, http.StatusOK, map[string]string{"session": id, "status": "closed"})
}

// lookup resolves a request's session ("" means anonymous).
func (s *Server) lookup(id string) (*session, error) {
	if id == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sessions[id]
	if !ok {
		return nil, errUnknownSession
	}
	return ss, nil
}

func (s *Server) handleSet(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Key     string `json:"key"`
		Value   string `json:"value"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ss, err := s.lookup(req.Session)
	if err != nil {
		writeErr(w, err)
		return
	}
	if ss == nil {
		writeErr(w, &apiError{http.StatusBadRequest, "bad-request", "set requires a session"})
		return
	}
	if err := ss.set(req.Key, req.Value); err != nil {
		writeErr(w, &apiError{http.StatusBadRequest, "bad-option", err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{req.Key: req.Value})
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ss, err := s.lookup(req.Session)
	if err != nil {
		writeErr(w, err)
		return
	}
	if ss == nil {
		writeErr(w, &apiError{http.StatusBadRequest, "bad-request", "prepare requires a session"})
		return
	}
	stmt, err := s.db.Prepare(req.SQL)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stmt":   ss.prepare(stmt),
		"params": stmt.NumParams(),
	})
}

// handleExec runs a statement without a result set (CREATE TABLE, INSERT).
// DDL takes the catalog's exclusive lock, so it passes admission like any
// query — under overload, writes shed too.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SQL string `json:"sql"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	release, _, err := s.admit(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	if err := s.db.Exec(req.SQL); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// queryRequest is the /v1/query body: either sql text or a prepared
// statement handle, with optional placeholder args and per-request options.
type queryRequest struct {
	Session string `json:"session,omitempty"`
	SQL     string `json:"sql,omitempty"`
	Stmt    string `json:"stmt,omitempty"`
	Args    []any  `json:"args,omitempty"`
	// Trace returns the query's span timeline (including the admission
	// wait) in the response. Traced queries additionally wait for
	// background optimization to settle, as WithTrace documents.
	Trace bool `json:"trace,omitempty"`
}

type queryResponse struct {
	Columns  []string   `json:"columns"`
	Rows     [][]any    `json:"rows"`
	RowCount int        `json:"row_count"`
	Stats    statsJSON  `json:"stats"`
	Trace    []spanJSON `json:"trace,omitempty"`
}

type statsJSON struct {
	ExecNs         int64  `json:"exec_ns"`
	TranslateNs    int64  `json:"translate_ns"`
	AdmissionNs    int64  `json:"admission_ns"`
	Workers        int    `json:"workers"`
	SerialFallback string `json:"serial_fallback,omitempty"`
}

type spanJSON struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var req queryRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if (req.SQL == "") == (req.Stmt == "") {
		writeErr(w, &apiError{http.StatusBadRequest, "bad-request",
			"exactly one of sql or stmt is required"})
		return
	}
	ss, err := s.lookup(req.Session)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Stmt != "" && ss == nil {
		writeErr(w, &apiError{http.StatusBadRequest, "bad-request",
			"stmt execution requires a session"})
		return
	}

	// Session quota first (cheap, per tenant), then the global gate.
	if ss != nil {
		if err := ss.acquire(s.cfg.SessionQuota); err != nil {
			reject(errSessionQuota.code)
			writeErr(w, err)
			return
		}
		defer ss.release()
	}
	release, wait, err := s.admit(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()

	// Deterministic mid-request failure for tests: an armed
	// server-session-cancel kills this request's session between admission
	// and execution, proving in-flight cancellation is clean.
	if ferr := faultpoint.Hit(FPSessionCancel); ferr != nil && ss != nil {
		ss.close()
	}

	// The query context: canceled by the client disconnecting, the session
	// closing, or server force-cancellation — whichever comes first — and
	// bounded by the query timeout.
	base := s.baseCtx
	timeout := s.cfg.QueryTimeout
	var opts []wasmdb.Option
	if ss != nil {
		base = ss.ctx
		var sessTimeout time.Duration
		opts, sessTimeout = ss.options()
		if sessTimeout > 0 && sessTimeout < timeout {
			timeout = sessTimeout
		}
	} else {
		opts = []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasm)}
		if s.cfg.DefaultParallelism > 1 {
			opts = append(opts, wasmdb.WithParallelism(s.cfg.DefaultParallelism))
		}
	}
	opts = append(opts, wasmdb.WithScheduler(s.sched))
	// Always-on telemetry: the request ID threads into the trace and log
	// record, and every query — success or error — lands in the structured
	// query log and is offered to the flight recorder.
	opts = append(opts,
		wasmdb.WithRequestID(RequestID(r)),
		wasmdb.WithQueryLog(func(rec wasmdb.QueryLogRecord) {
			s.observeQuery(rec, req.Session)
		}))
	ctx, cancel := context.WithTimeout(base, timeout)
	defer cancel()
	stopReq := context.AfterFunc(r.Context(), cancel)
	defer stopReq()

	var tr *wasmdb.Trace
	if req.Trace {
		tr = wasmdb.NewTrace()
		tr.AddSpan(obs.SpanAdmission, started, wait)
		opts = append(opts, wasmdb.WithTrace(tr))
	}

	var res *wasmdb.Result
	if req.Stmt != "" {
		stmt, ok := ss.stmt(req.Stmt)
		if !ok {
			writeErr(w, &apiError{http.StatusNotFound, "unknown-stmt",
				"unknown prepared statement " + req.Stmt})
			return
		}
		res, err = stmt.QueryContext(ctx, convertArgs(req.Args), opts...)
	} else if len(req.Args) > 0 {
		// Ad-hoc SQL with args: prepare transparently; the plan cache makes
		// the repeat path as cheap as a held statement handle.
		var stmt *wasmdb.Stmt
		if stmt, err = s.db.Prepare(req.SQL); err == nil {
			res, err = stmt.QueryContext(ctx, convertArgs(req.Args), opts...)
		}
	} else {
		res, err = s.db.QueryContext(ctx, req.SQL, opts...)
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	out := queryResponse{
		Columns:  res.Columns,
		Rows:     make([][]any, res.NumRows()),
		RowCount: res.NumRows(),
		Stats: statsJSON{
			ExecNs:         res.Stats.Execute.Nanoseconds(),
			TranslateNs:    res.Stats.Translate.Nanoseconds(),
			AdmissionNs:    wait.Nanoseconds(),
			Workers:        res.Stats.Workers,
			SerialFallback: res.Stats.SerialFallback,
		},
	}
	for i := range out.Rows {
		row := make([]any, len(res.Columns))
		for c := range res.Columns {
			row[c] = res.Value(i, c)
		}
		out.Rows[i] = row
	}
	if tr != nil {
		for _, sp := range tr.Spans() {
			out.Trace = append(out.Trace, spanJSON{Name: sp.Name, Ns: sp.Dur.Nanoseconds()})
		}
	}
	s.hLatency.Observe(time.Since(started).Nanoseconds())
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// convertArgs maps JSON-decoded argument values onto the binder's accepted
// Go types: JSON numbers arrive as float64, but an integral float64 almost
// always means an integer column — pass it as int64 and let the typed bind
// decide.
func convertArgs(args []any) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if f, ok := a.(float64); ok && f == float64(int64(f)) {
			out[i] = int64(f)
			continue
		}
		out[i] = a
	}
	return out
}
