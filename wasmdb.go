// Package wasmdb is a main-memory SQL engine that compiles query plans to
// WebAssembly and delegates JIT compilation, optimization, and adaptive
// execution to an embedded two-tier engine — a from-scratch reproduction of
//
//	Haffner & Dittrich: "A Simplified Architecture for Fast, Adaptive
//	Compilation and Execution of SQL Queries" (EDBT 2023).
//
// Queries run on one of four backends sharing the same parser, binder, and
// planner:
//
//   - BackendWasm (the paper's architecture): data-centric compilation to
//     Wasm with ad-hoc generated, monomorphic library code, executed
//     adaptively (fast baseline tier first, optimizing tier swapped in
//     morsel-wise as background compilation finishes);
//   - BackendHyperLike: the HyPer-style comparison point — data-centric
//     Wasm, but with type-agnostic library hash tables, callback sorting,
//     predicated selection, and an LLVM-grade (slow) optimizing pipeline;
//   - BackendVectorized: the MonetDB/X100-style comparison point —
//     interpretation over pre-compiled generic vector kernels with
//     selection vectors (zero per-query compilation);
//   - BackendVolcano: tuple-at-a-time iterators with boxed values.
package wasmdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"wasmdb/internal/autopilot"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/plancache"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/types"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/volcano"
)

// Backend selects a query execution architecture.
type Backend int

// Available backends.
const (
	// BackendWasm compiles to WebAssembly and executes adaptively
	// (Liftoff-tier immediately, TurboFan-tier swapped in mid-query).
	BackendWasm Backend = iota
	// BackendWasmLiftoff forces baseline-tier-only execution.
	BackendWasmLiftoff
	// BackendWasmTurbofan compiles fully with the optimizing tier before
	// executing.
	BackendWasmTurbofan
	// BackendHyperLike is the HyPer-style adaptive baseline.
	BackendHyperLike
	// BackendVectorized is the DuckDB/X100-style baseline.
	BackendVectorized
	// BackendVolcano is the PostgreSQL-style iterator baseline.
	BackendVolcano
	// BackendAuto compiles exactly as BackendWasm and sizes the morsel
	// worker pool per query from the planner's cardinality estimates,
	// corrected on warm plan-cache hits by the execution feedback recorded
	// for the query's fingerprint. The decision is deterministic given the
	// query shape, the catalog statistics and that feedback; Stats.Auto and
	// EXPLAIN ANALYZE report it and why. An explicit WithParallelism
	// overrides the grant.
	BackendAuto
)

// backendNames lists, per backend, its canonical name (what String returns)
// followed by the aliases ParseBackend also accepts — the one name table of
// the shell, the service and the metrics labels.
var backendNames = [...][]string{
	BackendWasm:         {"wasm-adaptive", "wasm", "adaptive"},
	BackendWasmLiftoff:  {"wasm-liftoff", "liftoff"},
	BackendWasmTurbofan: {"wasm-turbofan", "turbofan"},
	BackendHyperLike:    {"hyper-like", "hyper"},
	BackendVectorized:   {"vectorized"},
	BackendVolcano:      {"volcano"},
	BackendAuto:         {"auto"},
}

func (b Backend) String() string {
	if b < 0 || int(b) >= len(backendNames) {
		return "unknown"
	}
	return backendNames[b][0]
}

// ParseBackend returns the backend a name or alias denotes.
func ParseBackend(name string) (Backend, bool) {
	for b, names := range backendNames {
		if slices.Contains(names, name) {
			return Backend(b), true
		}
	}
	return 0, false
}

// hyperOptRounds exists only to model the HyPer-like backend's LLVM-grade
// compile cost: the extra rounds repeat work (cf. engine.Config.OptRounds).
const hyperOptRounds = 10

// DB is an in-memory database.
type DB struct {
	// mu is a readers-writer lock: queries (including prepared executions)
	// share it, DDL and data loads take it exclusively. Concurrent identical
	// queries therefore really race on the plan cache, which collapses them
	// into one compilation.
	mu     sync.RWMutex
	cat    *catalog.Catalog
	pcache *plancache.Cache
	// stmts holds each repeated statement's front-end products; it is
	// flushed with pcache (flushCaches).
	stmts stmtCache
}

// Open creates an empty database.
func Open() *DB {
	return &DB{cat: catalog.New(), pcache: plancache.New(0, 0)}
}

// LoadTPCH populates the database with TPC-H tables at the given scale
// factor (deterministic for a fixed seed).
func (db *DB) LoadTPCH(scaleFactor float64, seed int64) error {
	cat, err := tpch.Generate(scaleFactor, seed)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, name := range cat.Names() {
		t, _ := cat.Table(name)
		if err := db.cat.Add(t); err != nil {
			return err
		}
	}
	db.flushCaches()
	return nil
}

// TPCHQuery returns the SQL text of a reproduced TPC-H query ("Q1", "Q3",
// "Q6", "Q12", "Q14").
func TPCHQuery(id string) (string, bool) {
	q, ok := tpch.Queries[id]
	return q, ok
}

// Exec runs a statement without a result set (CREATE TABLE, INSERT).
func (db *DB) Exec(src string) error {
	st, err := sql.Parse(src)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	switch x := st.(type) {
	case *sql.CreateTableStmt:
		var defs []catalog.ColumnDef
		for _, c := range x.Columns {
			defs = append(defs, catalog.ColumnDef{Name: c.Name, Type: c.Type})
		}
		if _, err := db.cat.Create(x.Name, defs); err != nil {
			return err
		}
		// DDL invalidates every cached plan and statement: fingerprints
		// embed the schema version, so stale entries could never hit again —
		// flushing just frees their code immediately.
		db.flushCaches()
		return nil
	case *sql.InsertStmt:
		return db.execInsert(x)
	case *sql.SelectStmt:
		return fmt.Errorf("wasmdb: use Query for SELECT statements")
	}
	return fmt.Errorf("wasmdb: unsupported statement")
}

func (db *DB) execInsert(x *sql.InsertStmt) error {
	tbl, err := db.cat.Table(x.Table)
	if err != nil {
		return err
	}
	for _, row := range x.Rows {
		if len(row) != len(tbl.Columns) {
			return fmt.Errorf("wasmdb: INSERT expects %d values, got %d", len(tbl.Columns), len(row))
		}
		vals := make([]types.Value, len(row))
		for i, e := range row {
			v, err := literalValue(e, tbl.Columns[i].Type)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := tbl.AppendRow(vals...); err != nil {
			return err
		}
	}
	return nil
}

func literalValue(e sql.Expr, t types.Type) (types.Value, error) {
	switch x := e.(type) {
	case *sql.IntLit:
		switch t.Kind {
		case types.Int32:
			return types.NewInt32(int32(x.V)), nil
		case types.Int64:
			return types.NewInt64(x.V), nil
		case types.Float64:
			return types.NewFloat64(float64(x.V)), nil
		case types.Decimal:
			return types.NewDecimal(x.V*types.Pow10(t.Scale), t.Prec, t.Scale), nil
		}
	case *sql.FloatLit:
		if t.Kind == types.Float64 {
			return types.NewFloat64(x.V), nil
		}
	case *sql.NumericLit:
		switch t.Kind {
		case types.Float64:
			raw, err := types.ParseDecimal(x.Text, 15)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat64(float64(raw) / 1e15), nil
		case types.Decimal:
			raw, err := types.ParseDecimal(x.Text, t.Scale)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDecimal(raw, t.Prec, t.Scale), nil
		}
	case *sql.StringLit:
		if t.Kind == types.Char {
			return types.NewChar(x.V, t.Length), nil
		}
	case *sql.BoolLit:
		if t.Kind == types.Bool {
			return types.NewBool(x.V), nil
		}
	case *sql.DateLit:
		if t.Kind == types.Date {
			return types.NewDate(x.Days), nil
		}
	}
	return types.Value{}, fmt.Errorf("wasmdb: literal incompatible with column type %s", t)
}

// Typed guardrail errors. Match with errors.Is against errors returned from
// Query/QueryContext.
var (
	// ErrFuelExhausted reports that a query exceeded its WithFuel budget.
	ErrFuelExhausted = engine.ErrFuelExhausted
	// ErrMemoryLimit reports that a query exceeded its WithMemoryLimit heap
	// budget.
	ErrMemoryLimit = engine.ErrMemoryLimit
)

// Option configures a Query call.
type Option func(*queryOpts)

type queryOpts struct {
	backend      Backend
	morselRows   int
	wait         bool
	timeout      time.Duration
	fuel         int64
	memBudget    uint32
	trace        *obs.Trace
	parallelism  int
	planCacheOff bool
	scheduler    *core.Scheduler
	requestID    string
	onRecord     func(QueryLogRecord)
}

// Trace is a query-scoped recording of timed spans (parse, compile tiers,
// per-pipeline execution), point events (tier-up, memory growth, fuel
// checkpoints), and counters. Create with NewTrace, attach with WithTrace,
// and export with its WriteTraceEvents method (Chrome trace_event JSON,
// viewable in Perfetto or chrome://tracing).
type Trace = obs.Trace

// NewTrace creates an empty query trace.
func NewTrace() *Trace { return obs.NewTrace() }

// Metrics is the process-wide metrics registry: monotonic counters, gauges,
// and latency histograms accumulated across all queries.
type Metrics = obs.Registry

// Metrics returns the process-wide metrics registry shared by every DB in
// the process (queries by backend, compiles by tier, tier-up latency, fuel
// consumed, peak heap pages, morsel latency). Render with its Dump method.
func (db *DB) Metrics() *Metrics { return obs.Default }

// WriteTraceEvents serializes one or more query traces as Chrome
// trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each trace renders as its own labeled lane.
func WriteTraceEvents(w io.Writer, traces ...*Trace) error {
	return obs.WriteTraceEvents(w, traces...)
}

// WithBackend selects the execution backend (default BackendWasm).
func WithBackend(b Backend) Option { return func(o *queryOpts) { o.backend = b } }

// WithMorselRows overrides the morsel size for the Wasm backends.
func WithMorselRows(n int) Option { return func(o *queryOpts) { o.morselRows = n } }

// WithWaitOptimized queues every function of the query's module for
// background optimization and blocks execution until all of them are
// optimized — useful when benchmarking pure optimized-tier throughput.
// Without it a module's first run tiers up only the pipelines that still
// have morsels ahead, and a later run the rest (DESIGN.md §5.2).
func WithWaitOptimized() Option { return func(o *queryOpts) { o.wait = true } }

// WithTimeout bounds the query's wall-clock time. On expiry the query stops
// — even mid-morsel inside generated code — and returns an error matching
// context.DeadlineExceeded.
func WithTimeout(d time.Duration) Option { return func(o *queryOpts) { o.timeout = d } }

// WithFuel bounds the query to n units of guest execution (one unit per
// function entry and per taken loop back-edge). Exhaustion returns an error
// matching ErrFuelExhausted. Applies to the Wasm backends and auto; volcano
// and vectorized refuse it with an error.
func WithFuel(n int64) Option { return func(o *queryOpts) { o.fuel = n } }

// WithParallelism runs the query's morsel loops on a pool of n workers, each
// owning a private instance and linear memory created from the shared
// compiled module (n <= 0 means GOMAXPROCS). Scans, hash joins, keyless
// aggregation, single-level GROUP BY and ORDER BY parallelize: per-worker
// partial state is combined at the barriers the code generator declared —
// aggregate globals and group hash tables by the module's own generated
// merge functions, k sorted runs by its generated merge of adjacent pairs in
// ⌈log₂ k⌉ passes, result buffers by concatenation — and a join's build-side
// tuples are shared between the workers by rewiring, each worker building
// its own directory over all of them. Modules without a barrier for state a
// scan fills (library-style hash tables) and float SUMs, whose result depends
// on addition order, run serially; the trace and Stats record the fallback
// reason. Applies to the Wasm backends; result row order may differ from
// serial execution for unordered queries.
func WithParallelism(n int) Option {
	return func(o *queryOpts) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.parallelism = n
	}
}

// Scheduler is a shared global morsel worker-slot pool: attach one (via
// WithScheduler) to every query of a concurrent workload and intra-query
// worker pools are multiplexed across queries with fair time-slicing —
// WithParallelism becomes a request, the scheduler's fair share under the
// current load decides the grant, and slots of long-running queries are
// revoked at morsel boundaries when newer queries arrive. A query denied
// even one extra worker runs serially with Stats.SerialFallback =
// "worker-slots-exhausted". A Scheduler is safe for concurrent use.
type Scheduler = core.Scheduler

// NewScheduler creates a worker-slot pool of the given size (<= 0 means
// GOMAXPROCS). Slots count extra workers beyond each query's own goroutine.
func NewScheduler(slots int) *Scheduler { return core.NewScheduler(slots) }

// WithScheduler places the query's morsel workers under the shared global
// scheduler: the effective pool size becomes min(WithParallelism request,
// the scheduler's fair-share grant). Applies to the Wasm backends.
func WithScheduler(s *Scheduler) Option { return func(o *queryOpts) { o.scheduler = s } }

// WithTrace records the query's full execution timeline — phase spans,
// tier-up events, memory growth, fuel checkpoints — into tr. The query
// additionally waits for background optimization to settle before
// returning (without changing adaptive behavior during execution), so the
// tier-up timeline in tr is complete.
func WithTrace(tr *Trace) Option { return func(o *queryOpts) { o.trace = tr } }

// QueryLogRecord is one query's structured log record: identity (SQL, query
// hash, plan fingerprint, request ID), the adaptive timeline (backend, final
// dispatch tier, tier-ups with morsel indices, plan-cache outcome),
// parallelism grant and serial-fallback reason, resource use (fuel, peak
// memory, rows), and the parse→plan→compile→execute latency breakdown. It
// serializes as one JSON object (see obs.NewWriterSink for the JSON-lines
// sink the server uses).
type QueryLogRecord = obs.QueryLogRecord

// FlightRecorder is a bounded ring of recently captured queries — every
// error, every slow query, and a 1-in-N sample — dumpable as Chrome
// trace_event JSON. See obs.NewFlightRecorder.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder creates a flight recorder holding up to capacity entries
// and sampling one in sampleEvery ordinary queries (zero values select 256
// and "no sampling" respectively).
func NewFlightRecorder(capacity, sampleEvery int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity, sampleEvery)
}

// WithQueryLog invokes fn with the query's structured log record after
// execution finishes — on success and on error alike (the record's Error
// field distinguishes them). fn runs synchronously on the query path, so it
// should only hand the record off (obs.QueryLog is the non-blocking
// asynchronous consumer the server uses).
func WithQueryLog(fn func(QueryLogRecord)) Option {
	return func(o *queryOpts) { o.onRecord = fn }
}

// WithRequestID tags the query's trace and log record with the serving-layer
// request ID that carried it.
func WithRequestID(id string) Option { return func(o *queryOpts) { o.requestID = id } }

// WithPlanCache enables or disables the compiled-query plan cache for this
// query (default on). With the cache on, value-carrying literals (comparison
// operands, LIKE needles, LIMIT counts) are hoisted into a writable
// parameter region of linear memory, so queries differing only in those
// literals share one compiled module — and its accumulated TurboFan tier-up.
// With the cache off, literals compile as constants and nothing is cached or
// reused. Applies to the Wasm backends.
func WithPlanCache(enabled bool) Option {
	return func(o *queryOpts) { o.planCacheOff = !enabled }
}

// WithMemoryLimit caps the query's linear-memory heap at roughly maxBytes
// (rounded up to whole 64 KiB Wasm pages). A query that tries to grow
// beyond the cap returns an error matching ErrMemoryLimit. Applies to the
// Wasm backends and auto; volcano and vectorized refuse it with an error.
func WithMemoryLimit(maxBytes uint64) Option {
	return func(o *queryOpts) {
		pages := maxBytes / (64 * 1024)
		if pages == 0 || maxBytes%(64*1024) != 0 {
			pages++ // round up without overflowing near math.MaxUint64
		}
		if pages > 65536 {
			pages = 65536
		}
		o.memBudget = uint32(pages)
	}
}

// Stats describes where query time went.
type Stats struct {
	Backend Backend
	// Translate is SQL→plan→Wasm code generation time.
	Translate time.Duration
	// Liftoff and Turbofan are the engine's compile times for each tier
	// (zero for backends that do not compile). Under adaptive execution
	// tier 1 compiles each function on its first call, so Liftoff is also
	// part of Execute.
	Liftoff  time.Duration
	Turbofan time.Duration
	// Execute is pipeline execution time (includes instantiation).
	Execute time.Duration
	// MorselsLiftoff / MorselsTurbofan count morsel calls served by each
	// tier under adaptive execution.
	MorselsLiftoff  uint64
	MorselsTurbofan uint64
	// TurbofanFailed counts functions whose background optimizing compile
	// failed; the query completed on baseline code for those functions.
	TurbofanFailed int
	// ModuleBytes is the size of the generated Wasm module.
	ModuleBytes int
	// FuelUsed is the fuel consumed against a WithFuel budget (0 when none
	// was set; the implicit metering a cancellable context arms is internal
	// bookkeeping and is not reported).
	FuelUsed int64
	// PeakMemBytes is the high-water linear-memory size of the query — the
	// address space it reserved, rewired columns included — summed across
	// all workers under parallel execution.
	PeakMemBytes uint64
	// CommittedMemBytes is the part of PeakMemBytes the query allocated:
	// linear-memory pages are demand-zero, so only pages the generated code
	// touched count (rewired columns and untouched reservations do not).
	CommittedMemBytes uint64
	// Workers is the morsel worker-pool size the query ran with (1 when
	// serial; see WithParallelism).
	Workers int
	// PipelinesParallel and PipelinesSerial count morsel-driven pipelines by
	// how they executed. PipelinesSerial > 0 alone does not mean a fallback:
	// under parallel grouped aggregation or sort the post-barrier output
	// pipelines legitimately run serially on the primary worker over merged
	// state. A fallback is indicated by SerialFallback being non-empty.
	PipelinesParallel int
	PipelinesSerial   int
	// SerialFallback names why a WithParallelism request ran serially
	// ("limit", "float-sum-order", "unmergeable-pipeline-state", ...) and is
	// empty when the query parallelized or never asked to.
	SerialFallback string
	// GroupsMerged counts the partial group records folded into the primary
	// worker at the parallel group-by barrier (0 when no group merge ran).
	GroupsMerged int
	// JoinPartitionsMerged counts the secondary workers whose build-side
	// tuples were shared at parallel join build barriers: workers − 1 per
	// barrier (0 when the query ran serially).
	JoinPartitionsMerged int
	// Auto is the autopilot's decision for a BackendAuto query (always
	// "adaptive"; empty for manual backends), and AutoReason its one-line
	// rationale: the work estimate the worker grant was sized from.
	Auto       string
	AutoReason string
}

// backendConfig returns how a Wasm backend compiles: its code style and its
// engine tiering. BackendAuto compiles exactly as BackendWasm (DESIGN §14);
// the autopilot only sizes its worker pool.
func backendConfig(b Backend) (core.Style, engine.Config) {
	style, cfg := core.Style{}, engine.Config{Tier: engine.TierAdaptive}
	switch b {
	case BackendWasmLiftoff:
		cfg.Tier = engine.TierLiftoff
	case BackendWasmTurbofan:
		cfg.Tier = engine.TierTurbofan
	case BackendHyperLike:
		cfg.OptRounds = hyperOptRounds
		style = core.Style{LibraryHT: true, LibrarySort: true, PredicatedSelection: true}
	}
	return style, cfg
}

// statsFromTrace derives the public Stats from the query trace — the single
// source of truth all three stats surfaces (wasmdb.Stats, core.ExecStats,
// engine.CompileStats) now agree on.
func statsFromTrace(tr *obs.Trace, b Backend) Stats {
	s := Stats{
		Backend: b,
		Translate: tr.Dur(obs.SpanParse) + tr.Dur(obs.SpanSema) +
			tr.Dur(obs.SpanPlan) + tr.Dur(obs.SpanCodegen),
		Liftoff:  tr.Dur(obs.SpanLiftoff),
		Turbofan: tr.Dur(obs.SpanTurbofan),
		Execute: tr.Dur(obs.SpanRewire) + tr.Dur(obs.SpanInstantiate) +
			tr.Dur(obs.SpanExecute),
		MorselsLiftoff:       uint64(tr.Value(obs.CtrMorselsLiftoff)),
		MorselsTurbofan:      uint64(tr.Value(obs.CtrMorselsTurbofan)),
		TurbofanFailed:       int(tr.Value(obs.CtrTurbofanFailed)),
		ModuleBytes:          int(tr.Value(obs.CtrModuleBytes)),
		FuelUsed:             tr.Value(obs.CtrFuelUsed),
		PeakMemBytes:         uint64(tr.Value(obs.CtrPeakMemBytes)),
		CommittedMemBytes:    uint64(tr.Value(obs.CtrCommittedMemBytes)),
		Workers:              int(tr.Value(obs.CtrWorkers)),
		PipelinesParallel:    int(tr.Value(obs.CtrPipelinesParallel)),
		PipelinesSerial:      int(tr.Value(obs.CtrPipelinesSerial)),
		GroupsMerged:         int(tr.Value(obs.CtrGroupsMerged)),
		JoinPartitionsMerged: int(tr.Value(obs.CtrJoinPartitionsMerged)),
	}
	tr.EachEvent(func(e obs.Event) {
		switch e.Name {
		case obs.EvSerialFallback:
			for _, a := range e.Args {
				if a.Key == "reason" {
					s.SerialFallback = a.Str
				}
			}
		case obs.EvAutopilot:
			for _, a := range e.Args {
				switch a.Key {
				case "choice":
					s.Auto = a.Str
				case "reason":
					s.AutoReason = a.Str
				}
			}
		}
	})
	return s
}

// Result is a decoded result set.
type Result struct {
	Columns []string
	rows    [][]types.Value
	Stats   Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.rows) }

// Row renders row i as strings.
func (r *Result) Row(i int) []string {
	out := make([]string, len(r.rows[i]))
	for c, v := range r.rows[i] {
		out[c] = v.String()
	}
	return out
}

// Value returns the raw value at (row, col): int64/float64/string/bool.
func (r *Result) Value(row, col int) any {
	v := r.rows[row][col]
	switch v.Type.Kind {
	case types.Bool:
		return v.I != 0
	case types.Float64:
		return v.F
	case types.Char:
		return v.S
	case types.Decimal:
		return float64(v.I) / float64(types.Pow10(v.Type.Scale))
	case types.Date:
		return types.FormatDate(int32(v.I))
	default:
		return v.I
	}
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(r.rows))
	for i := range r.rows {
		rendered[i] = r.Row(i)
		for c, s := range rendered[i] {
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteString("\n")
	for i := range r.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range rendered {
		for c, s := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[c], s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Query plans and executes a SELECT statement.
func (db *DB) Query(src string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), src, opts...)
}

// QueryContext plans and executes a SELECT statement under ctx: when the
// context is canceled or its deadline expires, execution stops — including
// inside a running morsel of generated code — and the returned error matches
// ctx.Err(). WithTimeout layers a per-query deadline on top of ctx.
func (db *DB) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	return db.queryContext(ctx, src, nil, opts...)
}

// queryContext is the shared execution path behind Query and Stmt.Query.
// args carries the values for the statement's explicit ? placeholders (nil
// for ad-hoc queries, which must not contain placeholders).
//
// It wraps runQuery with the always-on telemetry: every query — success or
// error — records into a trace (the caller's via WithTrace, or an internal
// one) and lands one observation in the query_latency_ns{backend,tier,cache}
// histogram; a query with a WithQueryLog callback also yields a structured
// QueryLogRecord to it. Off the serving path the cost is the trace (which
// Stats are derived from anyway) and the histogram's series lookup, which
// the registry resolves without formatting a series name once it has seen
// the label set, so it stays on unconditionally. The record, its query hash
// and its tier-up list are built only when a callback will receive them.
func (db *DB) queryContext(ctx context.Context, src string, args []types.Value, opts ...Option) (*Result, error) {
	o := queryOpts{}
	for _, f := range opts {
		f(&o)
	}
	tr := o.trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	if tr.Label == "" {
		tr.Label = src
	}
	if o.requestID != "" {
		tr.RequestID = o.requestID
	}

	start := time.Now()
	res, err := db.runQuery(ctx, src, args, &o, tr)
	total := time.Since(start)

	backend := o.backend.String()
	cache := obs.PlanCacheOf(tr)
	if cache == "" {
		cache = "off"
	}
	obs.Default.HistogramWith(obs.MetricQueryLatency,
		obs.Label{Key: "backend", Val: backend},
		obs.Label{Key: "tier", Val: obs.TierOf(tr)},
		obs.Label{Key: "cache", Val: cache},
	).Observe(total.Nanoseconds())
	if o.onRecord != nil {
		rec := obs.RecordFromTrace(tr)
		rec.SQL = src
		rec.QueryHash = obs.HashQuery(src)
		rec.Backend = backend
		rec.TotalNs = total.Nanoseconds()
		if res != nil {
			rec.Rows = res.NumRows()
		}
		if err != nil {
			rec.Error = err.Error()
		}
		o.onRecord(rec)
	}
	return res, err
}

// runQuery is the execution path proper: parse → analyze → bind → plan (or
// a statement-cache hit, which skips all four) → compile (through the plan
// cache) → execute. The per-morsel hot path stays cheap: one atomic add per
// morsel, spans only at phase granularity.
func (db *DB) runQuery(ctx context.Context, src string, args []types.Value, o *queryOpts, tr *obs.Trace) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("wasmdb: query canceled: %w", err)
	}
	// The interpreters run no guest code to charge fuel to and allocate no
	// linear memory: a budget they would silently ignore is refused.
	wasmBackend := o.backend != BackendVolcano && o.backend != BackendVectorized
	if !wasmBackend && o.fuel > 0 {
		return nil, fmt.Errorf("wasmdb: the %v backend cannot enforce WithFuel", o.backend)
	}
	if !wasmBackend && o.memBudget > 0 {
		return nil, fmt.Errorf("wasmdb: the %v backend cannot enforce WithMemoryLimit", o.backend)
	}

	useCache := wasmBackend && !o.planCacheOff
	st, reused, err := db.statement(src, args, o.backend, useCache, tr)
	if err != nil {
		return nil, err
	}
	q, p, fp := st.q, st.p, st.fp

	// With the plan cache on, the parameter vector is the explicit
	// arguments followed by the literals the front end hoisted, so
	// same-shaped queries share one compiled module. Otherwise the
	// arguments were folded back into constants.
	var params []types.Value
	if useCache {
		params = make([]types.Value, 0, q.TotalParams)
		params = append(params, args...)
		params = append(params, st.lits...)
	}

	var dec autopilot.Decision
	if o.backend == BackendAuto {
		// The decision runs after placeholder binding (an explicit LIMIT ? is
		// already resolved into q.Limit and the plan's limit node) and is a
		// pure function of the plan profile, the stored feedback and the
		// knobs, so it is deterministic per (fingerprint, feedback, catalog
		// stats).
		var fbp *plancache.Feedback
		if fb, ok := db.pcache.Feedback(fp); ok {
			fbp = &fb
		}
		knobs := autopilot.DefaultKnobs()
		knobs.MaxWorkers = min(knobs.MaxWorkers, runtime.GOMAXPROCS(0))
		dec = autopilot.Decide(st.prof, fbp, knobs)
		if o.parallelism > 0 {
			// An explicit WithParallelism overrides the worker grant.
			dec.Workers = o.parallelism
		}
		dec.Record(tr)
		if dec.Workers > 1 {
			o.parallelism = dec.Workers
		}
	}

	res := &Result{}
	for _, oc := range q.Select {
		res.Columns = append(res.Columns, oc.Name)
	}

	switch o.backend {
	case BackendVolcano:
		sp := tr.Begin(obs.SpanExecute)
		_, rows, err := volcano.Run(q, p)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.rows = rows
	case BackendVectorized:
		sp := tr.Begin(obs.SpanExecute)
		_, rows, _, err := vectorized.Run(q, p)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.rows = rows
	default:
		style, cfg := backendConfig(o.backend)
		eng := engine.New(cfg)
		var cq *core.CompiledQuery
		var mod *engine.Module
		if useCache {
			ent, hit, cerr := db.pcache.GetOrCompile(fp, func() (*core.CompiledQuery, *engine.Module, error) {
				csp := tr.Begin(obs.SpanCodegen)
				c, err := core.CompileStyled(q, p, style)
				csp.End()
				if err != nil {
					return nil, nil, err
				}
				m, err := eng.CompileTraced(c.Bin, tr)
				if err != nil {
					return nil, nil, err
				}
				return c, m, nil
			})
			switch {
			case cerr == nil:
				cq, mod = ent.CQ, ent.Mod
				result, tier := "miss", "liftoff"
				if hit {
					result = "hit"
				}
				if mod.Optimized() {
					tier = "turbofan"
				}
				stmtResult := "planned"
				if reused {
					stmtResult = "reused"
				}
				tr.Event(obs.EvPlanCache,
					obs.S("result", result),
					obs.S("fingerprint", fp[:12]),
					obs.S("tier", tier),
					obs.S("statement", stmtResult))
			case errors.Is(cerr, core.ErrParamRegionOverflow):
				// More literal bytes than the parameter region holds:
				// compile the literal query below, uncached.
				if q, p, err = db.literalQuery(src, args); err != nil {
					return nil, err
				}
				params = nil
			default:
				return nil, cerr
			}
		}
		if cq == nil && mod == nil {
			sp := tr.Begin(obs.SpanCodegen)
			cq, err = core.CompileStyled(q, p, style)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
		out, _, err := core.Execute(cq, q, eng, core.ExecOptions{
			MorselRows:        o.morselRows,
			WaitOptimized:     o.wait,
			Ctx:               ctx,
			Fuel:              o.fuel,
			MemoryBudgetPages: o.memBudget,
			Parallelism:       o.parallelism,
			Scheduler:         o.scheduler,
			Trace:             tr,
			// A cache-managed module skips the per-query compile entirely.
			Precompiled: mod,
			Params:      params,
			// A caller-supplied trace gets the complete tier-up timeline.
			DrainBackground: o.trace != nil,
		})
		if err != nil {
			return nil, err
		}
		res.rows = out.Rows
	}
	res.Stats = statsFromTrace(tr, o.backend)
	obs.Default.CounterWith(obs.MetricQueries, obs.Label{Key: "backend", Val: o.backend.String()}).Add(1)
	if o.backend == BackendAuto {
		// Close the feedback loop: store what actually happened under this
		// fingerprint, so the next decision for the shape corrects itself.
		// The write goes through the cache's own lock — concurrent warm hits
		// replace the slot whole, never tear it.
		fb := plancache.Feedback{
			Rows:           int64(len(res.rows)),
			EstRows:        st.prof.OutRows,
			ExecNs:         tr.Dur(obs.SpanExecute).Nanoseconds(),
			Morsels:        int64(res.Stats.MorselsLiftoff + res.Stats.MorselsTurbofan),
			TierUpMorsel:   -1,
			Workers:        res.Stats.Workers,
			SerialFallback: res.Stats.SerialFallback,
			Choice:         dec.Choice.String(),
		}
		fb.FallbackIntrinsic = core.FallbackIntrinsic(fb.SerialFallback)
		if fb.Morsels > 0 {
			fb.MorselNs = fb.ExecNs / fb.Morsels
		}
		tr.EachEvent(func(ev obs.Event) {
			if ev.Name == obs.EvTierSwitch && fb.TierUpMorsel < 0 {
				for _, a := range ev.Args {
					if a.Key == "morsel" {
						fb.TierUpMorsel = a.Val
					}
				}
			}
		})
		db.pcache.RecordFeedback(fp, fb)
	}
	return res, nil
}

// analyze parses and binds a SELECT without running it. Caller holds db.mu.
func (db *DB) analyze(src string) (*sema.Query, error) {
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return sema.Analyze(stmt, db.cat)
}

// literalQuery re-derives a statement whose literals were hoisted into the
// parameter vector as the literal query: parsed and analyzed afresh (a
// stored statement's query is never rewritten), the placeholder arguments
// and LIMIT ? folded in as constants, and planned.
func (db *DB) literalQuery(src string, args []types.Value) (*sema.Query, plan.Node, error) {
	q, err := db.analyze(src)
	if err != nil {
		return nil, nil, err
	}
	if q.LimitParam >= 0 {
		q.Limit = args[q.LimitParam].I
	}
	if q.NumParams > 0 {
		sema.SubstituteParams(q, args)
	}
	p, err := plan.Build(q)
	return q, p, err
}

// Explain returns the physical plan and its pipeline dissection.
func (db *DB) Explain(src string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	q, err := db.analyze(src)
	if err != nil {
		return "", err
	}
	p, err := plan.Build(q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(plan.Describe(p))
	sb.WriteString("\npipelines (topological order):\n")
	for i, pl := range plan.Pipelines(p) {
		fmt.Fprintf(&sb, "  %d: %s\n", i+1, pl)
	}
	return sb.String(), nil
}

// ExplainWAT returns the WebAssembly (text form) generated for a query —
// the module the engine JIT-compiles, including the ad-hoc generated
// library code (hash tables, quicksort, string matchers).
func (db *DB) ExplainWAT(src string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	q, err := db.analyze(src)
	if err != nil {
		return "", err
	}
	p, err := plan.Build(q)
	if err != nil {
		return "", err
	}
	cq, err := core.Compile(q, p)
	if err != nil {
		return "", err
	}
	return cq.WAT(), nil
}
