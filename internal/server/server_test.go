package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/leakcheck"
)

// TestMain sweeps the package for leaked goroutines — admission waiters,
// session watchdogs, worker pools behind the shared scheduler — after the
// suite finishes. Runs under -race in `make verify`.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// newServer stands up a service over a freshly seeded DB and tears it down
// (shutdown included) at test end.
func newServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 256; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	if err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	return serveDB(t, db, cfg)
}

// serveDB stands up a service over db and tears it down (shutdown
// included) at test end.
func serveDB(t testing.TB, db *wasmdb.DB, cfg Config) (*Server, *httptest.Server) {
	s := New(db, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	return s, hs
}

// call issues one JSON request and decodes the JSON response.
func call(t *testing.T, hs *httptest.Server, method, path string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	status, m, h, err := callE(hs, method, path, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return status, m, h
}

// callE is call for goroutines: transport errors return instead of failing.
func callE(hs *httptest.Server, method, path string, body any) (int, map[string]any, http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, hs.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m, resp.Header, nil
}

// waitFor polls cond with a deadline — the test-side analogue of the
// admission paths it observes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockMorsels arms the core-morsel faultpoint so every executing query
// parks until the returned gate is closed. Queries admitted after the gate
// closes pass straight through.
func blockMorsels(t *testing.T) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	faultpoint.Enable("core-morsel", func(int) error {
		<-gate
		return nil
	})
	t.Cleanup(func() { faultpoint.Disable("core-morsel") })
	return gate
}

func TestSessionLifecycle(t *testing.T) {
	_, hs := newServer(t, Config{})

	status, m, _ := call(t, hs, "POST", "/v1/session", nil)
	if status != http.StatusOK {
		t.Fatalf("session create: %d %v", status, m)
	}
	sid, _ := m["session"].(string)
	if sid == "" {
		t.Fatalf("no session id in %v", m)
	}

	for k, v := range map[string]string{"backend": "liftoff", "parallelism": "2", "timeout": "5s"} {
		if status, m, _ = call(t, hs, "POST", "/v1/set", map[string]string{"session": sid, "key": k, "value": v}); status != http.StatusOK {
			t.Fatalf("set %s=%s: %d %v", k, v, status, m)
		}
	}
	if status, m, _ = call(t, hs, "POST", "/v1/set", map[string]string{"session": sid, "key": "bogus", "value": "x"}); status != http.StatusBadRequest {
		t.Fatalf("bad set key: %d %v, want 400", status, m)
	}

	status, m, _ = call(t, hs, "POST", "/v1/prepare", map[string]string{"session": sid, "sql": "SELECT COUNT(*) FROM t WHERE a < ?"})
	if status != http.StatusOK {
		t.Fatalf("prepare: %d %v", status, m)
	}
	stmt, _ := m["stmt"].(string)
	if stmt == "" || m["params"].(float64) != 1 {
		t.Fatalf("prepare response %v", m)
	}

	status, m, _ = call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "stmt": stmt, "args": []any{10}})
	if status != http.StatusOK {
		t.Fatalf("stmt query: %d %v", status, m)
	}
	rows := m["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0].(float64) != 10 {
		t.Fatalf("stmt query rows = %v, want [[10]]", rows)
	}

	// Ad-hoc with args on the same session, traced: the admission span must
	// be on the timeline.
	status, m, _ = call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT COUNT(*) FROM t WHERE a < ?", "args": []any{20}, "trace": true})
	if status != http.StatusOK {
		t.Fatalf("ad-hoc query: %d %v", status, m)
	}
	sawAdmission := false
	for _, sp := range m["trace"].([]any) {
		if sp.(map[string]any)["name"] == "admission" {
			sawAdmission = true
		}
	}
	if !sawAdmission {
		t.Errorf("traced response has no admission span: %v", m["trace"])
	}

	if status, m, _ = call(t, hs, "DELETE", "/v1/session/"+sid, nil); status != http.StatusOK {
		t.Fatalf("session delete: %d %v", status, m)
	}
	if status, m, _ = call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT 1"}); status != http.StatusNotFound {
		t.Fatalf("query on deleted session: %d %v, want 404", status, m)
	}
}

// TestAdhocArgsRepeatSkipsFrontEnd: an ad-hoc /v1/query with args is
// prepared transparently; once its text has run, the prepare reads the
// placeholders from the statement cache and the query reuses the stored
// plan, so a repeated request's trace holds no parse, sema or plan span.
func TestAdhocArgsRepeatSkipsFrontEnd(t *testing.T) {
	_, hs := newServer(t, Config{})
	const src = "SELECT COUNT(*) FROM t WHERE a < ? AND b = ?"
	frontEnd := func(m map[string]any) (n int) {
		for _, sp := range m["trace"].([]any) {
			switch sp.(map[string]any)["name"] {
			case "parse", "sema", "plan":
				n++
			}
		}
		return n
	}
	for i, want := range []struct {
		a, b, rows float64
		frontEnd   int
	}{{100, 3, 14, 3}, {200, 5, 28, 0}, {50, 0, 8, 0}} {
		status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": src, "args": []any{want.a, want.b}, "trace": true})
		if status != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, status, m)
		}
		if got := m["rows"].([]any)[0].([]any)[0].(float64); got != want.rows {
			t.Errorf("request %d: COUNT(*) = %v, want %v", i, got, want.rows)
		}
		if n := frontEnd(m); n != want.frontEnd {
			t.Errorf("request %d: %d parse/sema/plan spans, want %d: %v", i, n, want.frontEnd, m["trace"])
		}
	}
}

func TestQueryValidation(t *testing.T) {
	_, hs := newServer(t, Config{})
	if status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{}); status != http.StatusBadRequest {
		t.Fatalf("neither sql nor stmt: %d %v, want 400", status, m)
	}
	if status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT", "stmt": "p1"}); status != http.StatusBadRequest {
		t.Fatalf("both sql and stmt: %d %v, want 400", status, m)
	}
	if status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT nope FROM nada"}); status != http.StatusBadRequest {
		t.Fatalf("semantic error: %d %v, want 400", status, m)
	}
	if status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"session": "s999", "sql": "SELECT 1"}); status != http.StatusNotFound {
		t.Fatalf("unknown session: %d %v, want 404", status, m)
	}
}

// TestQueueFullRejection fills the single execution slot and the one queue
// seat, then proves the next arrival is shed immediately with an explicit
// queue-full error and a Retry-After — and that the held work still
// completes cleanly once unblocked.
func TestQueueFullRejection(t *testing.T) {
	srv, hs := newServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	gate := blockMorsels(t)

	q := map[string]any{"sql": "SELECT COUNT(*) FROM t"}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _, err := callE(hs, "POST", "/v1/query", q)
			if err != nil {
				status = -1
			}
			results <- status
		}()
		if i == 0 {
			waitFor(t, "first query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })
		} else {
			waitFor(t, "second query queued", func() bool { return srv.queued.Load() == 1 })
		}
	}

	start := time.Now()
	status, m, hdr := call(t, hs, "POST", "/v1/query", q)
	if status != http.StatusTooManyRequests || m["code"] != "queue-full" {
		t.Fatalf("third query: %d %v, want 429 queue-full", status, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("queue-full rejection missing Retry-After")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("queue-full rejection took %v; must be immediate, not queued", d)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if got := <-results; got != http.StatusOK {
			t.Errorf("held query %d finished with %d, want 200", i, got)
		}
	}
}

// TestQueueTimeout proves a queued request is rejected within the queue
// deadline when no slot frees up — bounded waiting, not unbounded queueing.
func TestQueueTimeout(t *testing.T) {
	_, hs := newServer(t, Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 50 * time.Millisecond})
	gate := blockMorsels(t)

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })

	start := time.Now()
	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	if status != http.StatusTooManyRequests || m["code"] != "queue-timeout" {
		t.Fatalf("queued query: %d %v, want 429 queue-timeout", status, m)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("queue-timeout rejection took %v, want ~50ms", d)
	}

	close(gate)
	if got := <-done; got != http.StatusOK {
		t.Errorf("held query finished with %d, want 200", got)
	}
}

func TestFaultpointAdmissionReject(t *testing.T) {
	_, hs := newServer(t, Config{})
	faultpoint.Enable(FPAdmissionReject, faultpoint.Always(errors.New("injected admission failure")))
	defer faultpoint.Disable(FPAdmissionReject)

	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT 1"})
	if status != http.StatusTooManyRequests || m["code"] != "admission-reject" {
		t.Fatalf("armed admission reject: %d %v, want 429 admission-reject", status, m)
	}
}

func TestFaultpointQueueFull(t *testing.T) {
	srv, hs := newServer(t, Config{MaxConcurrent: 1, MaxQueue: 8, QueueTimeout: 5 * time.Second})
	gate := blockMorsels(t)
	faultpoint.Enable(FPQueueFull, faultpoint.Always(errors.New("injected queue overflow")))
	defer faultpoint.Disable(FPQueueFull)

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })

	// The queue has room, but the armed faultpoint forces the overflow path.
	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	if status != http.StatusTooManyRequests || m["code"] != "queue-full" {
		t.Fatalf("armed queue-full: %d %v, want 429 queue-full", status, m)
	}
	if srv.queued.Load() != 0 {
		t.Errorf("rejected request left queued counter at %d", srv.queued.Load())
	}

	close(gate)
	if got := <-done; got != http.StatusOK {
		t.Errorf("held query finished with %d, want 200", got)
	}
}

// TestFaultpointSessionCancel arms the mid-request cancellation point: the
// session dies between admission and execution, and the query answers with
// an explicit cancellation — no hang, no torn response.
func TestFaultpointSessionCancel(t *testing.T) {
	_, hs := newServer(t, Config{})
	_, m, _ := call(t, hs, "POST", "/v1/session", nil)
	sid := m["session"].(string)

	faultpoint.Enable(FPSessionCancel, faultpoint.Always(errors.New("injected session cancel")))
	defer faultpoint.Disable(FPSessionCancel)

	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT COUNT(*) FROM t"})
	if status != StatusClientClosedRequest || m["code"] != "canceled" {
		t.Fatalf("canceled session query: %d %v, want 499 canceled", status, m)
	}
	faultpoint.Disable(FPSessionCancel)

	// The session is now closed; further use reports it explicitly.
	status, m, _ = call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT 1"})
	if status != http.StatusGone || m["code"] != "session-closed" {
		t.Fatalf("query on canceled session: %d %v, want 410 session-closed", status, m)
	}
}

// TestDeleteSessionCancelsInflight closes a session out from under its
// running query and proves the query aborts cleanly instead of finishing.
func TestDeleteSessionCancelsInflight(t *testing.T) {
	_, hs := newServer(t, Config{})
	_, m, _ := call(t, hs, "POST", "/v1/session", nil)
	sid := m["session"].(string)
	gate := blockMorsels(t)

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })

	if status, m, _ := call(t, hs, "DELETE", "/v1/session/"+sid, nil); status != http.StatusOK {
		t.Fatalf("delete: %d %v", status, m)
	}
	close(gate) // let the worker reach its next cancellation check
	if got := <-done; got != StatusClientClosedRequest {
		t.Errorf("in-flight query on deleted session finished with %d, want 499", got)
	}
}

func TestSessionQuota(t *testing.T) {
	_, hs := newServer(t, Config{MaxConcurrent: 4, SessionQuota: 1})
	_, m, _ := call(t, hs, "POST", "/v1/session", nil)
	sid := m["session"].(string)
	gate := blockMorsels(t)

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })

	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT 1"})
	if status != http.StatusTooManyRequests || m["code"] != "session-quota" {
		t.Fatalf("over-quota query: %d %v, want 429 session-quota", status, m)
	}
	// An anonymous request is not bound by that session's quota: it gets
	// admitted (then parks on the same morsel gate) instead of a 429.
	anon := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
		anon <- status
	}()

	close(gate)
	if got := <-done; got != http.StatusOK {
		t.Errorf("held query finished with %d, want 200", got)
	}
	if got := <-anon; got != http.StatusOK {
		t.Errorf("anonymous query under another session's quota pressure: %d, want 200", got)
	}
}

// TestQueryTimeout runs a runaway query under a session timeout: the
// interrupt watchdog stops the guest spin and the API answers 504.
func TestQueryTimeout(t *testing.T) {
	_, hs := newServer(t, Config{})
	_, m, _ := call(t, hs, "POST", "/v1/session", nil)
	sid := m["session"].(string)
	call(t, hs, "POST", "/v1/set", map[string]string{"session": sid, "key": "timeout", "value": "100ms"})

	faultpoint.Enable("core-infinite-loop", faultpoint.Always(errors.New("arm")))
	defer faultpoint.Disable("core-infinite-loop")

	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"session": sid, "sql": "SELECT COUNT(*) FROM t"})
	if status != http.StatusGatewayTimeout || m["code"] != "query-timeout" {
		t.Fatalf("runaway query: %d %v, want 504 query-timeout", status, m)
	}
}

// TestGracefulShutdown: draining flips health to 503 and sheds new arrivals,
// while the in-flight query is drained to completion, not killed.
func TestGracefulShutdown(t *testing.T) {
	srv, hs := newServer(t, Config{MaxConcurrent: 2})
	gate := blockMorsels(t)

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return faultpoint.Hits("core-morsel") >= 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, "draining", func() bool { return srv.draining.Load() })

	if status, _, _ := call(t, hs, "GET", "/healthz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", status)
	}
	status, m, _ := call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT 1"})
	if status != http.StatusServiceUnavailable || m["code"] != "shutdown" {
		t.Errorf("query while draining: %d %v, want 503 shutdown", status, m)
	}

	close(gate)
	if got := <-done; got != http.StatusOK {
		t.Errorf("drained query finished with %d, want 200 (drain must not kill it)", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("clean drain returned %v, want nil", err)
	}
}

// TestShutdownForceCancel: when the drain deadline passes, in-flight work is
// canceled through the context plumbing and Shutdown still returns promptly.
func TestShutdownForceCancel(t *testing.T) {
	srv, hs := newServer(t, Config{MaxConcurrent: 2})
	faultpoint.Enable("core-infinite-loop", faultpoint.Always(errors.New("arm")))
	defer faultpoint.Disable("core-infinite-loop")

	done := make(chan int, 1)
	go func() {
		status, _, _, _ := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
		done <- status
	}()
	waitFor(t, "query in-flight", func() bool { return srv.gActive.Value() >= 1 })
	time.Sleep(20 * time.Millisecond) // let it enter the guest spin

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("forced shutdown returned %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 8*time.Second {
		t.Errorf("forced shutdown took %v; cancellation did not land", d)
	}
	if got := <-done; got == http.StatusOK {
		t.Error("runaway query reported success after force-cancellation")
	}
}

// TestSaturation floods a 2-slot server from 8 clients at 4x capacity with
// deliberately slowed queries: every request gets an answer (success or an
// explicit 429), nothing hangs, and the books balance afterwards.
func TestSaturation(t *testing.T) {
	srv, hs := newServer(t, Config{MaxConcurrent: 2, MaxQueue: 1, QueueTimeout: 10 * time.Millisecond, WorkerSlots: 2})
	faultpoint.Enable("core-morsel", func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	defer faultpoint.Disable("core-morsel")

	const vus, reqs = 8, 12
	var mu sync.Mutex
	counts := map[int]int{}
	var wg sync.WaitGroup
	for v := 0; v < vus; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				status, _, _, err := callE(hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*), SUM(a) FROM t"})
				if err != nil {
					status = -1
				}
				mu.Lock()
				counts[status]++
				mu.Unlock()
			}
		}()
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("saturation workload hung")
	}

	for status := range counts {
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			t.Errorf("unexpected status %d under saturation (%d times)", status, counts[status])
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Error("no query succeeded under saturation")
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Error("4x overload produced zero explicit rejections — shedding did not engage")
	}
	if got := srv.queued.Load(); got != 0 {
		t.Errorf("queued counter = %d after workload, want 0", got)
	}
	if got := len(srv.sem); got != 0 {
		t.Errorf("%d execution slots still held after workload", got)
	}
	if got := srv.sched.InUse(); got != 0 {
		t.Errorf("%d scheduler slots still leased after workload", got)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, hs := newServer(t, Config{})
	if status, _, _ := call(t, hs, "GET", "/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", status)
	}
	call(t, hs, "POST", "/v1/query", map[string]any{"sql": "SELECT COUNT(*) FROM t"})

	req, _ := http.NewRequest("GET", hs.URL+"/v1/metrics", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "server_admitted_total") {
		t.Errorf("metrics dump missing server counters:\n%s", body)
	}
}

func TestConvertArgs(t *testing.T) {
	got := convertArgs([]any{float64(7), 2.5, "x", true, nil})
	if got[0] != int64(7) {
		t.Errorf("integral float64 → %T(%v), want int64(7)", got[0], got[0])
	}
	if got[1] != 2.5 || got[2] != "x" || got[3] != true || got[4] != nil {
		t.Errorf("non-integral args mangled: %v", got)
	}
}
