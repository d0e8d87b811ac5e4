package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"wasmdb"
	"wasmdb/internal/server"
)

// servingSessions is the client count of serving-warm. Each session is a
// closed loop: it sends its next request only after the previous reply.
const servingSessions = 2

// servingWorkload drives internal/server over loopback HTTP.
type servingWorkload struct {
	db     *wasmdb.DB
	srv    *server.Server
	ts     *httptest.Server
	shapes []servingShape
	// want[shape][arg] is the reference "rows" JSON of that request.
	want     [][][]byte
	sessions []*servingSession
}

type servingSession struct {
	id    string
	stmts []string // prepared handle per shape
	next  int      // position in the session's request sequence
}

func setupServing(db *wasmdb.DB, rng *rand.Rand, warmups int) (_ instance, err error) {
	w := &servingWorkload{db: db, shapes: servingShapes(rng)}
	w.srv = server.New(db, server.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	// References: the literal text of every (shape, argument vector) on
	// BackendVolcano, rendered exactly as the server renders rows.
	for _, sh := range w.shapes {
		var perArg [][]byte
		for i := range sh.args {
			res, err := db.Query(sh.literal(i), wasmdb.WithBackend(wasmdb.BackendVolcano))
			if err != nil {
				return nil, fmt.Errorf("reference for %q: %w", sh.literal(i), err)
			}
			rows := make([][]any, res.NumRows())
			for r := range rows {
				rows[r] = make([]any, len(res.Columns))
				for c := range res.Columns {
					rows[r][c] = res.Value(r, c)
				}
			}
			b, err := json.Marshal(rows)
			if err != nil {
				return nil, err
			}
			perArg = append(perArg, b)
		}
		w.want = append(w.want, perArg)
	}

	for s := 0; s < servingSessions; s++ {
		var reply struct {
			Session string `json:"session"`
			Stmt    string `json:"stmt"`
		}
		if err := w.post("/v1/session", struct{}{}, &reply); err != nil {
			return nil, err
		}
		ss := &servingSession{id: reply.Session, next: s * 7}
		for _, sh := range w.shapes {
			if err := w.post("/v1/prepare", map[string]string{"session": ss.id, "sql": sh.sql}, &reply); err != nil {
				return nil, err
			}
			ss.stmts = append(ss.stmts, reply.Stmt)
		}
		w.sessions = append(w.sessions, ss)
	}

	// Warm-up: every (shape, argument, mode) combination per session, then
	// one direct execution per shape that waits for background tier-up, so
	// the timed requests all dispatch optimized code from a cached module.
	for i := 0; i < warmups; i++ {
		for _, ss := range w.sessions {
			for k := 0; k < w.perCycle(); k++ {
				if _, status, err := w.request(ss, k); err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("warm-up request: status %d: %v", status, err)
				}
			}
		}
		for _, sh := range w.shapes {
			stmt, err := db.Prepare(sh.sql)
			if err == nil {
				_, err = stmt.QueryContext(context.Background(), sh.args[0], wasmdb.WithWaitOptimized())
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up of %q: %w", sh.sql, err)
			}
		}
	}
	return w, nil
}

// perCycle is the length of a session's request sequence before it repeats:
// 3 shapes × 16 argument vectors × {ad-hoc, prepared}.
func (w *servingWorkload) perCycle() int { return len(w.shapes) * 16 * 2 }

func (w *servingWorkload) perRound() int { return 1 }

func (w *servingWorkload) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // nothing is in flight; a failed drain changes no result
}

func (w *servingWorkload) post(path string, body, reply any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := w.ts.Client().Post(w.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// request issues request k of a session's sequence and checks the reply
// against the reference. Half the sequence is ad-hoc SQL with args, half
// goes through the session's prepared handles.
func (w *servingWorkload) request(ss *servingSession, k int) (ok bool, status int, err error) {
	shape := k % len(w.shapes)
	arg := k / len(w.shapes) % 16
	body := map[string]any{"session": ss.id, "args": w.shapes[shape].args[arg]}
	if k/len(w.shapes)/16%2 == 0 {
		body["sql"] = w.shapes[shape].sql
	} else {
		body["stmt"] = ss.stmts[shape]
	}
	b, err := json.Marshal(body)
	if err != nil {
		return false, 0, err
	}
	resp, err := w.ts.Client().Post(w.ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, resp.StatusCode, err
	}
	var reply struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return false, resp.StatusCode, err
	}
	return bytes.Equal(reply.Rows, w.want[shape][arg]), resp.StatusCode, nil
}

// measure runs the sessions concurrently; a round is one request and the
// clock is the wall time of the whole section.
func (w *servingWorkload) measure(lim limit) measurement {
	parts := make([]measurement, len(w.sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ss := range w.sessions {
		wg.Add(1)
		go func(m *measurement, ss *servingSession) {
			defer wg.Done()
			for !lim.done(len(m.samples)) {
				t := time.Now()
				ok, status, err := w.request(ss, ss.next)
				m.samples = append(m.samples, time.Since(t))
				ss.next = (ss.next + 1) % w.perCycle()
				m.attempted++
				if ok {
					continue
				}
				m.failed++
				switch status {
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					m.rejected++
				}
				if m.firstFailure == "" {
					m.firstFailure = fmt.Sprintf("session %s request %d: status %d, err %v", ss.id, ss.next, status, err)
				}
			}
		}(&parts[i], ss)
	}
	wg.Wait()
	total := measurement{timed: time.Since(start)}
	for _, p := range parts {
		total.samples = append(total.samples, p.samples...)
		total.attempted += p.attempted
		total.failed += p.failed
		total.rejected += p.rejected
		if total.firstFailure == "" {
			total.firstFailure = p.firstFailure
		}
	}
	return total
}

// probeOverhead issues one cycle of a session's requests alternately over
// HTTP and directly through prepared statements on the same warm DB:
// server.overhead_us is the difference of the two median latencies. It
// returns the direct median.
func (w *servingWorkload) probeOverhead(v map[string]float64) (time.Duration, error) {
	stmts := make([]*wasmdb.Stmt, len(w.shapes))
	for i, sh := range w.shapes {
		var err error
		if stmts[i], err = w.db.Prepare(sh.sql); err != nil {
			return 0, err
		}
	}
	var viaHTTP, direct []time.Duration
	for k := 0; k < w.perCycle(); k++ {
		t := time.Now()
		ok, status, err := w.request(w.sessions[0], k)
		viaHTTP = append(viaHTTP, time.Since(t))
		if !ok {
			return 0, fmt.Errorf("request %d: status %d, err %v", k, status, err)
		}
		shape, arg := k%len(w.shapes), k/len(w.shapes)%16
		t = time.Now()
		_, err = stmts[shape].Query(w.shapes[shape].args[arg]...)
		direct = append(direct, time.Since(t))
		if err != nil {
			return 0, err
		}
	}
	d := quantile(direct, 0.50)
	v["server.overhead_us"] = us(quantile(viaHTTP, 0.50) - d)
	return d, nil
}
