package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// The flight recorder keeps the last-N interesting queries — every errored
// query, every slow query, and a cheap 1-in-N sample of the rest — together
// with their full traces in a bounded ring, so "what just happened" is
// answerable after the fact without having opted into tracing beforehand.
// Dumps render as Chrome trace_event JSON (one lane per captured query).

// Capture reasons, used as the flightrec_records_total label.
const (
	CaptureError   = "error"
	CaptureSlow    = "slow"
	CaptureSampled = "sampled"
)

// The capture counters, resolved once so a capture allocates nothing.
var (
	mFlightError   = Default.CounterWith(MetricFlightRecords, Label{"reason", CaptureError})
	mFlightSlow    = Default.CounterWith(MetricFlightRecords, Label{"reason", CaptureSlow})
	mFlightSampled = Default.CounterWith(MetricFlightRecords, Label{"reason", CaptureSampled})
)

// FlightEntry is one captured query: its log record plus the capture reason
// and a monotonically increasing sequence number (older entries have lower
// sequence numbers; the ring evicts the lowest first).
type FlightEntry struct {
	Seq    uint64         `json:"seq"`
	Reason string         `json:"reason"`
	Record QueryLogRecord `json:"record"`
}

// FlightRecorder is a bounded ring of captured queries. Safe for concurrent
// use; Observe is O(1) and never blocks on readers dumping the ring.
type FlightRecorder struct {
	mu          sync.Mutex
	ring        []FlightEntry
	next        int // ring index the next capture overwrites
	n           int // live entries (== len(ring) once full)
	seq         uint64
	count       uint64 // total Observe calls, drives sampling
	sampleEvery int
}

// NewFlightRecorder creates a recorder holding up to capacity entries
// (default 256) and sampling one in sampleEvery non-slow, non-error queries
// (default 64; sampleEvery <= 0 disables sampling, keeping only slow and
// errored queries).
func NewFlightRecorder(capacity, sampleEvery int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{
		ring:        make([]FlightEntry, capacity),
		sampleEvery: sampleEvery,
	}
}

// Observe offers one finished query to the recorder. Errored and slow
// queries are always captured; others are captured one-in-sampleEvery.
// Returns the capture reason, or "" if the query was not captured.
func (f *FlightRecorder) Observe(rec QueryLogRecord) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	var reason string
	var captures *Counter
	switch {
	case rec.Error != "":
		reason, captures = CaptureError, mFlightError
	case rec.Slow:
		reason, captures = CaptureSlow, mFlightSlow
	case f.sampleEvery > 0 && (f.count-1)%uint64(f.sampleEvery) == 0:
		reason, captures = CaptureSampled, mFlightSampled
	default:
		return ""
	}
	f.seq++
	f.ring[f.next] = FlightEntry{Seq: f.seq, Reason: reason, Record: rec}
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	captures.Add(1)
	return reason
}

// Len returns the number of captured entries currently held.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Snapshot returns the held entries oldest-first.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, 0, f.n)
	start := f.next - f.n
	for i := 0; i < f.n; i++ {
		out = append(out, f.ring[(start+i+len(f.ring))%len(f.ring)])
	}
	return out
}

// flightDump is the JSON shape of a flight-recorder dump: the entry list
// (traces elided) plus the combined Chrome trace_event timeline of every
// captured query that carried a trace.
type flightDump struct {
	Entries []FlightEntry   `json:"entries"`
	Trace   json.RawMessage `json:"trace,omitempty"`
}

// WriteTraceEvents dumps the captured queries' traces as one Chrome
// trace_event JSON timeline (a lane per query, labeled with its SQL and
// request ID). Entries captured without a trace are skipped.
func (f *FlightRecorder) WriteTraceEvents(w io.Writer) error {
	traces := []*Trace{}
	for _, e := range f.Snapshot() {
		if e.Record.Trace != nil {
			traces = append(traces, e.Record.Trace)
		}
	}
	return WriteTraceEvents(w, traces...)
}

// WriteJSON dumps the ring as JSON: the record list oldest-first plus the
// combined trace_event timeline under "trace".
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	entries := f.Snapshot()
	dump := flightDump{Entries: entries}
	traces := []*Trace{}
	for _, e := range entries {
		if e.Record.Trace != nil {
			traces = append(traces, e.Record.Trace)
		}
	}
	if len(traces) > 0 {
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf, traces...); err != nil {
			return err
		}
		dump.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump)
}
