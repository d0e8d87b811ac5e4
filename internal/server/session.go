package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"wasmdb"
)

// session is one client's server-side state: prepared statements, \set-style
// execution options, a per-session context (canceling it aborts every
// in-flight query of the session), and the in-flight counter its concurrency
// quota is enforced against.
type session struct {
	id string

	// ctx is a child of the server's base context: closing the session —
	// or force-canceling the server at shutdown — cancels every query
	// running under it.
	ctx    context.Context
	cancel context.CancelFunc

	// inflight counts the session's currently executing queries, bounded by
	// Config.SessionQuota. Guarded by mu with the settings below.
	mu       sync.Mutex
	inflight int
	closed   bool

	// \set-style options, applied to every query of the session.
	backend      wasmdb.Backend
	parallelism  int
	plancacheOff bool
	fuel         int64
	memBytes     uint64
	timeout      time.Duration

	// stmts are the session's prepared statements, keyed by handle ("p1").
	stmts    map[string]*wasmdb.Stmt
	nextStmt int
}

// acquire claims one in-flight slot against the session's quota.
func (ss *session) acquire(quota int) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return errSessionClosed
	}
	if quota > 0 && ss.inflight >= quota {
		return errSessionQuota
	}
	ss.inflight++
	return nil
}

// release returns an in-flight slot.
func (ss *session) release() {
	ss.mu.Lock()
	ss.inflight--
	ss.mu.Unlock()
}

// close cancels the session's context (aborting its in-flight queries) and
// marks it unusable.
func (ss *session) close() {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	ss.cancel()
}

// options renders the session's settings as query options. Callers hold no
// locks during execution, so the settings are snapshotted under mu.
func (ss *session) options() ([]wasmdb.Option, time.Duration) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	opts := []wasmdb.Option{wasmdb.WithBackend(ss.backend)}
	if ss.parallelism > 1 {
		opts = append(opts, wasmdb.WithParallelism(ss.parallelism))
	}
	if ss.plancacheOff {
		opts = append(opts, wasmdb.WithPlanCache(false))
	}
	if ss.fuel > 0 {
		opts = append(opts, wasmdb.WithFuel(ss.fuel))
	}
	if ss.memBytes > 0 {
		opts = append(opts, wasmdb.WithMemoryLimit(ss.memBytes))
	}
	return opts, ss.timeout
}

// set applies one \set-style option to the session.
func (ss *session) set(key, value string) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch key {
	case "backend":
		b, ok := wasmdb.ParseBackend(value)
		if !ok {
			return fmt.Errorf("unknown backend %q", value)
		}
		ss.backend = b
	case "parallelism":
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("parallelism wants a non-negative integer, got %q", value)
		}
		ss.parallelism = n
	case "plancache":
		switch value {
		case "on":
			ss.plancacheOff = false
		case "off":
			ss.plancacheOff = true
		default:
			return fmt.Errorf("plancache wants on|off, got %q", value)
		}
	case "fuel":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("fuel wants a non-negative integer, got %q", value)
		}
		ss.fuel = n
	case "memlimit":
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("memlimit wants a byte count, got %q", value)
		}
		ss.memBytes = n
	case "timeout":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return fmt.Errorf("timeout wants a duration, got %q", value)
		}
		ss.timeout = d
	default:
		return fmt.Errorf("settable: backend, parallelism, plancache, fuel, memlimit, timeout")
	}
	return nil
}

// prepare registers a prepared statement and returns its handle.
func (ss *session) prepare(stmt *wasmdb.Stmt) string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.nextStmt++
	id := "p" + strconv.Itoa(ss.nextStmt)
	ss.stmts[id] = stmt
	return id
}

// stmt looks up a prepared statement by handle.
func (ss *session) stmt(id string) (*wasmdb.Stmt, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.stmts[id]
	return s, ok
}
