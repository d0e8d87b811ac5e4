package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. The spans of one query share Query;
// Parent is the index of the span whose call caused this one (-1 for the
// query's root span).
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	Query      int
	// Derived marks a span laid out from a duration the parent's call
	// returned (engine.CompileStats, core.ExecStats) rather than clocked by
	// the benchmark; its position inside the parent is approximate.
	Derived bool
}

// recorder keeps spans in memory until the run ends. The traced pass is
// single-threaded, so a stack of open spans gives every span its parent.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	query int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	} else {
		r.query++
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Query: r.query})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	r.spans[i].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// derive adds a child of closed span parent covering d from offset, clipped
// to the parent's interval.
func (r *recorder) derive(parent int, name string, offset, d time.Duration) {
	p := r.spans[parent]
	start := min(p.Start+offset, p.End)
	r.spans = append(r.spans, span{
		Name: name, Start: start, End: min(start+d, p.End),
		Parent: parent, Query: p.Query, Derived: true,
	})
}

// selfTimes returns each span's duration minus the part its children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// check verifies the span tree: every parent exists, belongs to the same
// query and contains its child, and no span has negative self time.
func (r *recorder) check() error {
	if len(r.open) != 0 {
		return fmt.Errorf("%d spans left open", len(r.open))
	}
	for i, s := range r.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d %s: orphan (parent %d)", i, s.Name, s.Parent)
		}
		p := r.spans[s.Parent]
		if p.Query != s.Query || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s lies outside its parent %s", i, s.Name, p.Name)
		}
	}
	for i, d := range r.selfTimes() {
		if d < 0 {
			return fmt.Errorf("span %d %s has negative self time %v", i, r.spans[i].Name, d)
		}
	}
	return nil
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events on one track, nested by containment), loadable in Perfetto.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "query": s.Query, "derived": s.Derived},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
