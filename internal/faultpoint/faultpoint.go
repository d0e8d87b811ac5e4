// Package faultpoint provides named, test-activated fault injection points.
//
// Production code marks the places where a real system can fail — a tier-2
// compile, a memory grow, a morsel call, a rewiring callback — with
// faultpoint.Hit("name"). In normal operation every point is disarmed and
// Hit costs a single atomic load. Tests arm a point with Enable to force the
// failure and prove the corresponding guardrail end-to-end: graceful tier-up
// degradation, typed memory-limit errors, trap recovery mid-query.
package faultpoint

import (
	"sync"
	"sync/atomic"

	"wasmdb/internal/obs"
)

var (
	// armed counts enabled points so Hit can bail out without locking when
	// nothing is injected (the common case, including all of production).
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	fn   func(hit int) error
	hits int
}

// Enable arms the named fault point. fn is invoked on every subsequent Hit
// with the 1-based hit count and returns the error to inject (nil injects
// nothing for that hit). Enabling an already-armed point replaces its
// function and resets its hit count.
func Enable(name string, fn func(hit int) error) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{fn: fn}
}

// Disable disarms the named fault point. Disabling an unarmed point is a
// no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Hit reports whether the named fault point injects a failure right now.
// It returns nil when the point is disarmed; the fast path is one atomic
// load, so Hit is safe to place on hot paths.
//
// The hit function runs outside the package lock, so it may block (tests
// use that to delay background tier-up) without stalling unrelated points.
// Every evaluation of an armed point is audited: a point event on the
// active trace and a per-point counter in the metrics registry, so a
// fault-injection run leaves a record even when nothing was injected.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	var fn func(int) error
	var n int
	if p != nil {
		p.hits++
		n = p.hits
		fn = p.fn
	}
	mu.Unlock()
	if fn == nil {
		return nil
	}
	err := fn(n)
	obs.Default.CounterWith(obs.MetricFaultpointHits, obs.Label{Key: "point", Val: name}).Add(1)
	if tr := obs.Active(); tr != nil {
		injected := int64(0)
		if err != nil {
			injected = 1
		}
		tr.Event(obs.EvFaultpoint, obs.S("point", name), obs.I("hit", int64(n)), obs.I("injected", injected))
	}
	return err
}

// Hits returns how many times the named point has been evaluated since it
// was (re-)enabled, for test assertions.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.hits
	}
	return 0
}

// Always returns a hit function that injects err on every hit.
func Always(err error) func(int) error {
	return func(int) error { return err }
}

// AtHit returns a hit function that injects err on the n-th hit only.
func AtHit(n int, err error) func(int) error {
	return func(hit int) error {
		if hit == n {
			return err
		}
		return nil
	}
}
