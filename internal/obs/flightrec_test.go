package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestFlightRecorderCaptureReasons: errors and slow queries always capture;
// ordinary queries capture one-in-sampleEvery.
func TestFlightRecorderCaptureReasons(t *testing.T) {
	f := NewFlightRecorder(16, 4)
	if r := f.Observe(QueryLogRecord{SQL: "boom", Error: "parse error"}); r != CaptureError {
		t.Errorf("errored query captured as %q", r)
	}
	if r := f.Observe(QueryLogRecord{SQL: "slow", Slow: true}); r != CaptureSlow {
		t.Errorf("slow query captured as %q", r)
	}
	sampled := 0
	for i := 0; i < 40; i++ {
		if r := f.Observe(QueryLogRecord{SQL: "ok"}); r == CaptureSampled {
			sampled++
		} else if r != "" {
			t.Errorf("ordinary query captured as %q", r)
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 at 1-in-4, want 10", sampled)
	}
	// Sampling disabled: only slow/error capture.
	f2 := NewFlightRecorder(4, 0)
	for i := 0; i < 10; i++ {
		if r := f2.Observe(QueryLogRecord{SQL: "ok"}); r != "" {
			t.Errorf("captured %q with sampling disabled", r)
		}
	}
}

// TestFlightRecorderEviction: the ring holds the newest capacity entries,
// oldest-first in Snapshot, with monotonically increasing sequence numbers.
func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(4, 1) // capture everything
	for i := 0; i < 10; i++ {
		f.Observe(QueryLogRecord{SQL: fmt.Sprintf("q%d", i)})
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	snap := f.Snapshot()
	for i, e := range snap {
		if want := fmt.Sprintf("q%d", 6+i); e.Record.SQL != want {
			t.Errorf("entry %d = %q, want %q", i, e.Record.SQL, want)
		}
		if i > 0 && snap[i].Seq != snap[i-1].Seq+1 {
			t.Errorf("non-monotonic seq: %d after %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
}

// TestFlightRecorderConcurrent: concurrent writers and a reader dumping the
// ring mid-churn — run under -race, this is the data-race check. Traces
// attached to records may still be written to (background tier-up), so one
// writer keeps appending to a captured trace while the dump runs.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 2)
	tr := NewTrace()
	var wg sync.WaitGroup
	// Background tier-up into a captured trace, one event per dump below:
	// each append races the dump that released it, and the trace stays a
	// fixed size. (An unthrottled producer made every dump — which
	// serialises the trace once per ring entry — slower than the last, which
	// let the trace grow further still.)
	tick := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range tick {
			tr.Event(EvTierUp, I("func", 1), I("morsel", tr.MorselCount()))
			tr.AddMorsel()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Observe(QueryLogRecord{SQL: fmt.Sprintf("g%d-q%d", g, i), Slow: i%3 == 0, Trace: tr})
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		tick <- struct{}{}
		var buf bytes.Buffer
		if err := f.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON during churn: %v", err)
		}
		if err := f.WriteTraceEvents(&buf); err != nil {
			t.Fatalf("WriteTraceEvents during churn: %v", err)
		}
	}
	close(tick)
	wg.Wait()
	if f.Len() != 8 {
		t.Errorf("Len = %d, want full ring of 8", f.Len())
	}
}

// TestFlightRecorderDumpShape: the JSON dump carries entries plus a combined
// Chrome trace_event timeline for entries that have traces.
func TestFlightRecorderDumpShape(t *testing.T) {
	f := NewFlightRecorder(4, 0)
	tr := sampleTrace()
	f.Observe(QueryLogRecord{SQL: "slow one", Slow: true, Trace: tr, RequestID: "req-42"})
	f.Observe(QueryLogRecord{SQL: "bad one", Error: "boom"})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Entries []FlightEntry `json:"entries"`
		Trace   struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(dump.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(dump.Entries))
	}
	if dump.Entries[0].Reason != CaptureSlow || dump.Entries[1].Reason != CaptureError {
		t.Errorf("reasons = %q, %q", dump.Entries[0].Reason, dump.Entries[1].Reason)
	}
	if len(dump.Trace.TraceEvents) == 0 {
		t.Fatal("no trace events in dump despite a captured trace")
	}
	// The thread_name metadata lane carries the request ID.
	found := false
	for _, ev := range dump.Trace.TraceEvents {
		if ev["name"] == "thread_name" {
			if args, ok := ev["args"].(map[string]any); ok && args["request_id"] == "req-42" {
				found = true
			}
		}
	}
	if !found {
		t.Error("request_id not threaded into the trace_event metadata")
	}
}
