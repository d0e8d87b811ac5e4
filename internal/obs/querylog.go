package obs

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"
)

// The structured query log: one self-contained JSON record per executed
// query, derived from the same trace the public Stats come from, emitted
// through a pluggable sink that never blocks the query path — records are
// handed to a bounded queue and a background flusher; overflow drops (and
// counts querylog_dropped_total) rather than stalling execution.

// TierUp is one background tier-up in a query's timeline: function index and
// the morsel count at the moment its optimized code was published.
type TierUp struct {
	Func   int64 `json:"func"`
	Morsel int64 `json:"morsel"`
}

// SpanNs is one phase span of a promoted (slow) record's detail timeline,
// relative to the query's start.
type SpanNs struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// QueryLogRecord is one query's structured log record. Everything except
// the identity fields (SQL, Backend, RequestID, Session) is derived from
// the query trace by RecordFromTrace, so the log, the public Stats, and
// EXPLAIN ANALYZE can never disagree.
type QueryLogRecord struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id,omitempty"`
	Session   string    `json:"session,omitempty"`
	SQL       string    `json:"sql"`
	// QueryHash is a stable FNV-64a hash of the SQL text; Fingerprint is the
	// plan-cache fingerprint prefix (same-shaped queries share it even when
	// their literals differ).
	QueryHash   string `json:"query_hash,omitempty"`
	Fingerprint string `json:"plan_fingerprint,omitempty"`
	Backend     string `json:"backend,omitempty"`
	// Tier is the final dispatch mix: "liftoff", "turbofan", "mixed" (the
	// query tiered up mid-execution), or "none" for non-compiling backends.
	Tier string `json:"tier,omitempty"`
	// TierUps is the adaptive timeline: each background publish with the
	// morsel index it landed at.
	TierUps   []TierUp `json:"tier_ups,omitempty"`
	PlanCache string   `json:"plan_cache,omitempty"` // hit | miss | off
	// Workers is the granted morsel worker-pool size; SerialFallback names
	// why a parallel request ran serially (empty otherwise).
	Workers        int    `json:"workers,omitempty"`
	SerialFallback string `json:"serial_fallback,omitempty"`
	// Auto is the autopilot's decision for BackendAuto queries (always
	// "adaptive"; empty for manual backends).
	Auto         string `json:"auto,omitempty"`
	FuelUsed     int64  `json:"fuel_used,omitempty"`
	PeakMemBytes int64  `json:"peak_mem_bytes,omitempty"`
	Rows         int    `json:"rows"`
	// Latency breakdown: parse (parse+sema), plan, compile (codegen through
	// liftoff), execute (rewire+instantiate+execute), and wall-clock total.
	ParseNs   int64  `json:"parse_ns"`
	PlanNs    int64  `json:"plan_ns"`
	CompileNs int64  `json:"compile_ns"`
	ExecuteNs int64  `json:"execute_ns"`
	TotalNs   int64  `json:"total_ns"`
	Error     string `json:"error,omitempty"`
	// Slow marks a record over the caller's slow-query threshold; Promoted
	// marks a slow record that won the rate limiter and carries the full
	// span timeline in Spans.
	Slow     bool     `json:"slow,omitempty"`
	Promoted bool     `json:"promoted,omitempty"`
	Spans    []SpanNs `json:"spans,omitempty"`
	// Trace is the query's full trace, carried for the flight recorder and
	// never serialized into the log.
	Trace *Trace `json:"-"`
}

// HashQuery returns the stable FNV-64a hash of a query text, hex-encoded —
// the query log's aggregation key for "the same statement".
func HashQuery(sql string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, sql)
	return strconv.FormatUint(h.Sum64(), 16)
}

// RecordFromTrace derives a query-log record from a completed query trace:
// the latency breakdown from the phase spans, the tier timeline from tier-up
// events, plan-cache outcome and fingerprint from the plan-cache event, and
// the parallelism/fuel/memory counters. Identity fields (SQL, Backend,
// Session, TotalNs, Error, Rows) are the caller's to fill.
func RecordFromTrace(tr *Trace) QueryLogRecord {
	rec := QueryLogRecord{Time: tr.StartTime()}
	if tr == nil {
		return rec
	}
	rec.RequestID = tr.RequestID
	rec.Trace = tr
	rec.ParseNs = (tr.Dur(SpanParse) + tr.Dur(SpanSema)).Nanoseconds()
	rec.PlanNs = tr.Dur(SpanPlan).Nanoseconds()
	rec.CompileNs = (tr.Dur(SpanCodegen) + tr.Dur(SpanDecode) +
		tr.Dur(SpanValidate) + tr.Dur(SpanLiftoff)).Nanoseconds()
	rec.ExecuteNs = (tr.Dur(SpanRewire) + tr.Dur(SpanInstantiate) +
		tr.Dur(SpanExecute)).Nanoseconds()
	rec.Workers = int(tr.Value(CtrWorkers))
	rec.FuelUsed = tr.Value(CtrFuelUsed)
	rec.PeakMemBytes = tr.Value(CtrPeakMemBytes)
	rec.Rows = int(tr.Value(CtrResultRows))

	rec.Tier = TierOf(tr)

	tr.EachEvent(func(e Event) {
		switch e.Name {
		case EvTierUp:
			var tu TierUp
			for _, a := range e.Args {
				switch a.Key {
				case "func":
					tu.Func = a.Val
				case "morsel":
					tu.Morsel = a.Val
				}
			}
			rec.TierUps = append(rec.TierUps, tu)
		case EvPlanCache:
			for _, a := range e.Args {
				switch a.Key {
				case "result":
					rec.PlanCache = a.Str
				case "fingerprint":
					rec.Fingerprint = a.Str
				}
			}
		case EvSerialFallback:
			for _, a := range e.Args {
				if a.Key == "reason" {
					rec.SerialFallback = a.Str
				}
			}
		case EvAutopilot:
			for _, a := range e.Args {
				if a.Key == "choice" {
					rec.Auto = a.Str
				}
			}
		}
	})
	return rec
}

// TierOf is a finished query's dispatch mix, QueryLogRecord.Tier: "mixed"
// when both tiers ran morsels, else the one that did, or "none".
func TierOf(tr *Trace) string {
	lo, tf := tr.Value(CtrMorselsLiftoff), tr.Value(CtrMorselsTurbofan)
	switch {
	case lo > 0 && tf > 0:
		return "mixed"
	case tf > 0:
		return "turbofan"
	case lo > 0:
		return "liftoff"
	}
	return "none"
}

// PlanCacheOf is a query's plan-cache outcome, QueryLogRecord.PlanCache:
// the result of its plan-cache event, "hit" or "miss", or "" when the query
// did not use the cache.
func PlanCacheOf(tr *Trace) string {
	var res string
	tr.EachEvent(func(e Event) {
		if e.Name != EvPlanCache {
			return
		}
		for _, a := range e.Args {
			if a.Key == "result" {
				res = a.Str
			}
		}
	})
	return res
}

// spanTimeline renders the trace's full span list relative to its start —
// attached to slow records the promotion rate limiter admits.
func spanTimeline(tr *Trace) []SpanNs {
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	out := make([]SpanNs, 0, len(spans))
	start := tr.StartTime()
	for _, sp := range spans {
		out = append(out, SpanNs{Name: sp.Name, StartNs: sp.Start.Sub(start).Nanoseconds(), DurNs: sp.Dur.Nanoseconds()})
	}
	return out
}

// QueryLogSink consumes finished records. Emit may be called from the query
// log's single flusher goroutine only, so sinks need no internal ordering;
// they should still be cheap — a slow sink backs the queue up into drops.
type QueryLogSink interface {
	Emit(QueryLogRecord)
}

// WriterSink is the default sink: one JSON object per line.
type WriterSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewWriterSink wraps w as a JSON-lines sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit writes one record as a JSON line.
func (s *WriterSink) Emit(rec QueryLogRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(rec)
}

// QueryLogConfig tunes the asynchronous query log. Zero values select the
// documented defaults.
type QueryLogConfig struct {
	// Buffer bounds records queued for the flusher (default 256); overflow
	// drops and counts querylog_dropped_total.
	Buffer int
	// SlowEvery is the slow-promotion token refill interval (default 100ms):
	// at most one promoted record per interval on average, bursting to
	// SlowBurst (default 10). Promotion attaches the full span timeline;
	// the record itself is always logged.
	SlowEvery time.Duration
	SlowBurst int
}

func (c *QueryLogConfig) norm() {
	if c.Buffer <= 0 {
		c.Buffer = 256
	}
	if c.SlowEvery <= 0 {
		c.SlowEvery = 100 * time.Millisecond
	}
	if c.SlowBurst <= 0 {
		c.SlowBurst = 10
	}
}

// QueryLog is the asynchronous structured query log: Observe enqueues
// without blocking, a single background flusher feeds the sink, and Close
// drains it. Safe for concurrent use.
type QueryLog struct {
	cfg  QueryLogConfig
	sink QueryLogSink

	mu     sync.Mutex
	closed bool
	ch     chan QueryLogRecord
	done   chan struct{}

	// Slow-promotion token bucket, guarded by slowMu.
	slowMu     sync.Mutex
	slowTokens float64
	slowLast   time.Time

	mRecords *Counter
	mDropped *Counter
}

// NewQueryLog starts a query log over sink. Call Close to flush and stop
// the background flusher (the goroutine-leak sweeps check it).
func NewQueryLog(sink QueryLogSink, cfg QueryLogConfig) *QueryLog {
	cfg.norm()
	l := &QueryLog{
		cfg:        cfg,
		sink:       sink,
		ch:         make(chan QueryLogRecord, cfg.Buffer),
		done:       make(chan struct{}),
		slowTokens: float64(cfg.SlowBurst),
		slowLast:   time.Now(),
		mRecords:   Default.Counter(MetricQuerylogRecords),
		mDropped:   Default.Counter(MetricQuerylogDropped),
	}
	go l.flush()
	return l
}

func (l *QueryLog) flush() {
	for rec := range l.ch {
		l.sink.Emit(rec)
		l.mRecords.Add(1)
	}
	close(l.done)
}

// Observe logs one record. Slow records that win the promotion rate limiter
// additionally carry the full span timeline. Never blocks: a full queue
// drops the record and counts the drop.
func (l *QueryLog) Observe(rec QueryLogRecord) {
	if l == nil {
		return
	}
	if rec.Slow && l.allowSlow() {
		rec.Promoted = true
		rec.Spans = spanTimeline(rec.Trace)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	select {
	case l.ch <- rec:
	default:
		l.mDropped.Add(1)
	}
}

// allowSlow takes one token from the slow-promotion bucket.
func (l *QueryLog) allowSlow() bool {
	l.slowMu.Lock()
	defer l.slowMu.Unlock()
	now := time.Now()
	l.slowTokens += float64(now.Sub(l.slowLast)) / float64(l.cfg.SlowEvery)
	l.slowLast = now
	if max := float64(l.cfg.SlowBurst); l.slowTokens > max {
		l.slowTokens = max
	}
	if l.slowTokens < 1 {
		return false
	}
	l.slowTokens--
	return true
}

// Close stops accepting records, flushes the queue through the sink, and
// waits for the flusher goroutine to exit. Idempotent.
func (l *QueryLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	l.mu.Unlock()
	<-l.done
}
