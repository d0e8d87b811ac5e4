package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wasmdb/internal/engine"
	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Process-wide executor metrics, resolved once so recording is atomic-only.
var (
	mFuelConsumed   = obs.Default.Counter(obs.MetricFuelConsumed)
	mPeakHeapPages  = obs.Default.Gauge(obs.MetricPeakHeapPages)
	mPagesCommitted = obs.Default.Counter(obs.MetricPagesCommitted)
	mPagesRecycled  = obs.Default.Counter(obs.MetricPagesRecycled)
	mPagesFresh     = obs.Default.Counter(obs.MetricPagesFresh)
	mMorselLatency  = obs.Default.Histogram(obs.MetricMorselLatency)
)

// ExecOptions configures query execution.
type ExecOptions struct {
	// MorselRows is the morsel size (default DefaultMorselRows).
	MorselRows int
	// ChunkRows enables chunked rewiring (§6.1) for table-scan pipelines:
	// instead of mapping whole columns, the executor maps a window of
	// ChunkRows rows and re-maps the window to the next chunk between
	// morsel batches — how tables beyond the 32-bit address budget are
	// processed. Must be a multiple of 65536 so every column's chunk stays
	// page-aligned; 0 disables chunking.
	ChunkRows int
	// WaitOptimized queues every function of the module for tier-up and
	// blocks until all of them are optimized before the first morsel runs —
	// used by benchmarks that want to measure pure TurboFan-tier execution
	// under the adaptive configuration.
	WaitOptimized bool
	// Ctx cancels the query: between morsels via a direct check, and inside
	// a running morsel via the instance's interrupt flag (metering is
	// enabled automatically when Ctx is cancellable). nil means Background.
	Ctx context.Context
	// Fuel bounds execution to that many units (function entries plus taken
	// loop back-edges); exhaustion fails the query with
	// engine.ErrFuelExhausted. 0 means unlimited.
	Fuel int64
	// MemoryBudgetPages caps the query's linear memory (in 64 KiB pages);
	// growth beyond it fails the query with engine.ErrMemoryLimit. 0 means
	// no budget.
	MemoryBudgetPages uint32
	// Trace, when non-nil, receives the query's spans, point events, and
	// counters (compile phases, rewiring, per-pipeline execution, tier-up
	// timeline). nil disables span recording on the hot path.
	Trace *obs.Trace
	// DrainBackground waits, after the last morsel, for the background
	// compile of what is already queued — adaptive behavior during the query
	// is unchanged and nothing more is queued, but the trace's tier-up
	// timeline and Turbofan timing are complete when Execute returns.
	DrainBackground bool
	// Parallelism sets the morsel worker-pool size (<= 1 runs serially).
	// Each worker owns a private instance and linear memory created from the
	// shared compiled module; a module whose code generator declared no
	// barrier for state a scan fills runs serially (see
	// ExecStats.SerialFallback).
	Parallelism int
	// Scheduler, when non-nil, is the shared global worker-slot pool that
	// multiplexes morsel workers across concurrent queries: Parallelism
	// becomes a request, the scheduler's lease decides the actual pool size,
	// and a denied lease forces serial execution with the
	// "worker-slots-exhausted" fallback recorded. Revoked slots are given
	// back at morsel boundaries (see Scheduler). nil keeps per-query
	// parallelism ungoverned, as before.
	Scheduler *Scheduler
	// Precompiled, when non-nil, is an already-compiled engine module for
	// cq.Bin (a plan-cache hit): Execute skips engine compilation entirely —
	// no decode/validate/liftoff spans are recorded and the returned stats
	// report zero compile time — and instantiates this module instead. The
	// module may already be serving turbofan code from earlier executions.
	Precompiled *engine.Module
	// Params is the execution-time parameter vector, indexed by parameter
	// ordinal (explicit placeholders first, then literals hoisted by
	// sema.Parameterize). Its values are written into the parameter region
	// of every worker memory before q_init. Required when cq.ParamSlots is
	// non-empty.
	Params []types.Value
}

// ExecStats reports where time went, phase by phase (the paper's Fig. 10
// breakdown). The fields are flat — one struct instead of nested
// engine.CompileStats — and agree with the spans and counters recorded on
// the query trace, which is the single source of truth the public
// wasmdb.Stats is also derived from.
type ExecStats struct {
	// Engine compilation phases.
	Decode   time.Duration
	Validate time.Duration
	// Liftoff is the baseline-tier compile time. Under TierAdaptive it sums
	// the first-call compiles, which run inside Run.
	Liftoff time.Duration
	// Turbofan is the optimizing-tier compile time. Under TierAdaptive it is
	// measured on the background goroutine and sums the functions compiled
	// so far: complete once what was queued finished (WaitOptimized or
	// DrainBackground).
	Turbofan time.Duration
	// Rewire covers mapping the referenced columns into linear memory.
	Rewire time.Duration
	// Init covers instantiation, column rewiring, and q_init.
	Init time.Duration
	// Run covers pipeline execution.
	Run time.Duration
	// MorselsLiftoff and MorselsTurbofan count exported calls served by
	// each tier — the observable adaptive switch.
	MorselsLiftoff  uint64
	MorselsTurbofan uint64
	// TurbofanFailed counts functions whose optimizing compile failed; they
	// keep serving baseline code.
	TurbofanFailed int
	// ModuleBytes is the size of the generated Wasm binary.
	ModuleBytes int
	// FuelUsed is the fuel consumed against a user-supplied ExecOptions.Fuel
	// budget (0 when no budget was set). A cancellable context arms implicit
	// metering so interruption can reach inside a morsel, but that synthetic
	// budget is bookkeeping, not a user contract, and is never reported here.
	FuelUsed int64
	// PeakMemBytes is the high-water linear-memory size (pages never
	// shrink, so the final size is the peak): the address space the query
	// reserved, host-mapped columns included. Under parallel execution it is
	// the sum across all worker memories.
	PeakMemBytes uint64
	// CommittedMemBytes is the part of PeakMemBytes the query actually
	// allocated: module-owned pages committed by a first touch, summed
	// across workers. Reserved pages nobody touched and host-mapped columns
	// cost nothing and are not counted.
	CommittedMemBytes uint64
	// Workers is the size of the morsel worker pool the query ran with (1
	// when serial).
	Workers int
	// PipelinesParallel and PipelinesSerial count morsel-driven pipelines by
	// how they were executed (run-once pipelines, which dispatch a single
	// call, are counted in neither). PipelinesSerial > 0 alone does not mean
	// the query fell back: under parallel grouped aggregation or sort the
	// post-barrier output pipelines legitimately run serially on the primary
	// worker over merged state. A fallback is indicated by SerialFallback
	// being non-empty.
	PipelinesParallel int
	PipelinesSerial   int
	// SerialFallback names why a query that requested parallelism ran its
	// pipelines serially ("" when parallel execution applied or was never
	// requested): chunked-rewiring, fuel-budget, limit, float-sum-order,
	// unmergeable-pipeline-state, or worker-slots-exhausted.
	SerialFallback string
	// GroupsMerged counts the partial group records folded into the primary
	// at the group-by barrier: the sum of the secondary workers' group
	// counts (0 when no group merge ran).
	GroupsMerged int
	// JoinPartitionsMerged counts the secondary workers whose tuple chunks
	// were shared at parallel join build barriers (workers − 1 per barrier),
	// summed across the query's joins (0 when the query ran serially).
	JoinPartitionsMerged int
}

// ResultSet holds decoded query results.
type ResultSet struct {
	Names []string
	Types []types.Type
	Rows  [][]types.Value
}

// worker is one execution lane of the morsel pool: a private instance and
// linear memory created from the shared compiled module, plus the rows its
// result_flush calls have decoded so far. Serial queries use a single worker.
type worker struct {
	id   int
	mem  *wmem.Memory
	inst *engine.Instance
	// rows are this worker's decoded results, concatenated in worker order
	// at the end.
	rows [][]types.Value
	// limitHit is set by the drain once the query's LIMIT is satisfied; the
	// morsel loop treats it like the guest's stop signal.
	limitHit bool
	// args and res carry a morsel call's range and stop signal, so the
	// dispatch allocates nothing.
	args [2]uint64
	res  [1]uint64
}

// executor is one execution of a compiled query: the per-call decisions, the
// worker pool, and the loop "drive a pipeline, then run its barriers".
type executor struct {
	cq  *CompiledQuery
	q   *sema.Query
	opt ExecOptions
	ctx context.Context
	// tr drives all instrumentation. It stays exactly opt.Trace — nil when
	// the caller asked for no tracing — so an untraced query pays one pointer
	// test per recording site and nothing more.
	tr    *obs.Trace
	stats *ExecStats
	// limit is the effective LIMIT (-1 for none): a parameterized limit lives
	// in the parameter vector (cq.Limit is the value the module was first
	// compiled with and may be stale on a plan-cache hit).
	limit int64
	// ws is the pool. Worker 0 is the primary: it runs every pipeline the
	// pool does not share, over the state the barriers left with it. lease is
	// nil without a scheduler.
	ws    []*worker
	lease *Lease
	// mod is the compiled module; firstRun says this is its first execution,
	// which queues for tier-up only the pipelines with rows still ahead.
	mod      *engine.Module
	firstRun bool
}

// Execute runs a compiled query against its bound tables on the given
// engine: it rewires the referenced columns into a fresh linear memory
// (§6.1), instantiates the module, and drives every pipeline morsel-wise so
// the engine's background tier-up can swap code between morsels. When it
// returns, every worker's pages and frame arena are back in their pools.
func Execute(cq *CompiledQuery, q *sema.Query, eng *engine.Engine, opt ExecOptions) (*ResultSet, *ExecStats, error) {
	x := &executor{cq: cq, q: q, opt: opt, ctx: opt.Ctx, tr: opt.Trace,
		stats: &ExecStats{ModuleBytes: len(cq.Bin)}, limit: cq.Limit}
	if x.opt.MorselRows <= 0 {
		x.opt.MorselRows = DefaultMorselRows
	}
	if x.ctx == nil {
		x.ctx = context.Background()
	}
	// Context-free instrumentation (faultpoint) finds the trace through the
	// process-wide active slot for the duration of the query.
	if x.tr != nil {
		prev := obs.SwapActive(x.tr)
		defer obs.SwapActive(prev)
	}
	if cq.LimitSlot >= 0 {
		if cq.LimitSlot >= len(opt.Params) {
			return nil, nil, fmt.Errorf("core: missing value for limit parameter ?%d", cq.LimitSlot)
		}
		if x.limit = opt.Params[cq.LimitSlot].I; x.limit < 0 {
			return nil, nil, fmt.Errorf("core: negative LIMIT %d", x.limit)
		}
	}
	mod := opt.Precompiled
	if mod == nil {
		var err error
		if mod, err = eng.CompileTraced(cq.Bin, x.tr); err != nil {
			return nil, nil, fmt.Errorf("core: engine compile: %w", err)
		}
	}
	if opt.ChunkRows != 0 && opt.ChunkRows%wmem.PageSize != 0 {
		return nil, nil, fmt.Errorf("core: ChunkRows must be a multiple of %d", wmem.PageSize)
	}

	workers := x.poolSize()
	defer x.lease.Release()
	defer x.release()
	t0 := time.Now()
	if err := x.rewire(workers); err != nil {
		return nil, nil, err
	}
	x.stats.Rewire = time.Since(t0)
	done := make(chan struct{}) // stops the cancellation watchdog
	defer close(done)
	if err := x.start(mod, done); err != nil {
		return nil, nil, err
	}
	x.stats.Init = time.Since(t0)
	x.mod, x.firstRun = mod, mod.CountRun() == 0
	if x.firstRun {
		x.tierUpScans()
	} else {
		mod.TierUp(x.tr, engine.TriggerRerun, 0)
	}
	if opt.WaitOptimized {
		// A failed background compile is not a query error: affected
		// functions keep running on baseline code, and the failure is
		// visible in CompileStats.TurbofanFailed.
		mod.TierUp(x.tr, engine.TriggerWait, 0)
		_ = mod.WaitQueued()
	}

	t1 := time.Now()
	spRun := x.tr.Begin(obs.SpanExecute)
	if err := x.run(); err != nil {
		return nil, nil, err
	}
	// Drain the rows still in each worker's buffer; result rows need no
	// barrier, the buffers are concatenated in worker order.
	res := &ResultSet{}
	for _, rf := range cq.ResultFields {
		res.Names = append(res.Names, rf.Name)
		res.Types = append(res.Types, rf.Type)
	}
	for _, w := range x.ws {
		x.drain(w, w.mem, uint32(w.inst.Global(int(cq.CursorGlobal))))
		res.Rows = append(res.Rows, w.rows...)
	}
	spRun.End()
	x.stats.Run = time.Since(t1)
	if opt.DrainBackground {
		// Complete the tier-up timeline (and Turbofan timing) without having
		// perturbed adaptive behavior during the query. A failed background
		// compile is not a query error — see WaitOptimized above.
		_ = mod.WaitQueued()
	}
	x.foldStats(mod, len(res.Rows))

	if x.limit >= 0 && int64(len(res.Rows)) > x.limit {
		res.Rows = res.Rows[:x.limit]
	}
	return res, x.stats, nil
}

// poolSize decides how many workers run the query and records why, when the
// caller asked for more than it gets: a reason of the fallback table, or a
// denied lease. Under a shared scheduler the request is only that — the lease
// grants what the pool's fair share allows right now.
func (x *executor) poolSize() int {
	workers, fallback := 1, ""
	if x.opt.Parallelism > 1 {
		if fallback = x.serialReason(); fallback == "" {
			workers = x.opt.Parallelism
		}
	}
	if workers > 1 && x.opt.Scheduler != nil {
		if x.lease = x.opt.Scheduler.Acquire(workers); x.lease == nil {
			fallback = fallbackSlots
		}
		workers = 1 + x.lease.Extras()
	}
	x.stats.Workers = workers
	x.stats.SerialFallback = fallback
	if fallback != "" {
		x.tr.Event(obs.EvSerialFallback, obs.S("reason", fallback))
		obs.Default.CounterWith(obs.MetricSerialFallbacks, obs.Label{Key: "reason", Val: fallback}).Add(1)
	}
	if workers > 1 {
		x.tr.Event(obs.EvParallel, obs.I("workers", int64(workers)))
	}
	return workers
}

// rewire builds the worker pool's memories: every worker owns a private
// memory with the same host columns mapped in and the execution's parameter
// values written to the parameter region (the shared module never changes).
// Under chunked rewiring nothing is mapped here: every referenced table is
// scanned by exactly one pipeline, which maps it window by window.
func (x *executor) rewire(workers int) error {
	sp := x.tr.Begin(obs.SpanRewire)
	x.ws = make([]*worker, workers)
	mapped, pagesMapped := 0, 0
	for wi := range x.ws {
		w := &worker{id: wi, mem: wmem.New(x.cq.MinPages, 65536)}
		x.ws[wi] = w
		w.mem.SetTracer(x.tr)
		if x.opt.MemoryBudgetPages > 0 {
			// The budget bounds each worker's heap: it exists to stop
			// runaway per-query allocations, and parallel-eligible pipelines
			// allocate almost nothing beyond the fixed layout.
			w.mem.SetBudget(x.opt.MemoryBudgetPages)
		}
		for _, cm := range x.cq.Columns {
			col := x.q.Tables[cm.TableIdx].Table.Columns[cm.ColIdx]
			if x.opt.ChunkRows > 0 || col.MappedBytes() == 0 {
				continue
			}
			data := col.Data()
			if err := w.mem.Map(cm.Base, data); err != nil {
				return fmt.Errorf("core: rewiring column %s.%s: %w",
					x.q.Tables[cm.TableIdx].Table.Name, col.Name, err)
			}
			mapped++
			pagesMapped += len(data) / wmem.PageSize
		}
		if len(x.cq.ParamSlots) > 0 {
			if err := writeParams(w.mem, x.cq.ParamSlots, x.opt.Params); err != nil {
				return err
			}
		}
	}
	sp.End(obs.I("columns", int64(mapped)), obs.I("pages_mapped", int64(pagesMapped)), obs.I("workers", int64(workers)))
	return nil
}

// release hands every worker's frame arena and memory back to their pools.
// Execute defers it, so it runs after every worker has returned (each joins
// its goroutines before it returns) on success and on every error path
// alike. The memories go together because Alias shares pages between them.
func (x *executor) release() {
	for _, w := range x.ws {
		if w == nil {
			continue
		}
		if w.inst != nil {
			w.inst.Close()
		}
		w.mem.Release()
	}
}

// mapChunk rewires rows [start, start+n) of every referenced column of table
// ti into the column's window on the primary (chunking runs serially, see the
// fallback table).
func (x *executor) mapChunk(ti, start, n int) error {
	if err := faultpoint.Hit("core-rewire"); err != nil {
		return fmt.Errorf("core: chunk rewiring: %w", err)
	}
	for _, cm := range x.cq.Columns {
		if cm.TableIdx != ti {
			continue
		}
		col := x.q.Tables[ti].Table.Columns[cm.ColIdx]
		sz := col.Type.Size()
		lo := start * sz
		hi := (start + n) * sz
		hi = (hi + wmem.PageSize - 1) &^ (wmem.PageSize - 1)
		data := col.Data()
		if hi > len(data) {
			hi = len(data)
		}
		if lo >= hi {
			continue
		}
		if err := x.ws[0].mem.Map(cm.Base, data[lo:hi]); err != nil {
			return fmt.Errorf("core: chunk rewiring %s.%s: %w", x.q.Tables[ti].Table.Name, col.Name, err)
		}
	}
	return nil
}

// start gives every worker a private instance of the shared module
// (background tier-up publishes optimized code to all of them at once), arms
// fuel metering and the cancellation watchdog, and runs q_init.
func (x *executor) start(mod *engine.Module, done <-chan struct{}) error {
	sp := x.tr.Begin(obs.SpanInstantiate)
	// A cancellable context needs metering too: the fuel checks double as
	// interruption points, which is the only way to stop generated code in
	// the middle of a morsel. That implicit budget is distinct from a user
	// Fuel budget: only the latter is reported in FuelUsed and fuel trace
	// events (the stat's documented contract).
	fuel := x.opt.Fuel
	if fuel <= 0 && x.ctx.Done() != nil {
		fuel = math.MaxInt64
	}
	for _, w := range x.ws {
		inst, err := mod.InstantiateWithTrace(engine.Imports{
			Memory: w.mem,
			Funcs: map[string]*rt.HostFunc{
				"env.result_flush": {
					Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}},
					Fn: func(env *rt.Env, args, out []uint64) {
						x.drain(w, env.Mem, uint32(args[0]))
						out[0] = 0
					},
				},
			},
		}, x.tr)
		if err != nil {
			return fmt.Errorf("core: instantiate: %w", err)
		}
		w.inst = inst
		if fuel > 0 {
			inst.SetFuel(fuel)
		}
	}
	if x.ctx.Done() != nil {
		// Watchdog: flips every instance's interrupt flag when the context
		// fires, trapping each in-flight call at its next fuel check.
		go func() {
			select {
			case <-x.ctx.Done():
				for _, w := range x.ws {
					w.inst.Interrupt()
				}
			case <-done:
			}
		}()
	}
	for _, w := range x.ws {
		for _, b := range x.cq.Barriers {
			if b.Join != nil && len(x.ws) > 1 {
				// Whole-page tuple chunks, so the build barriers can rewire
				// them between workers.
				w.inst.SetGlobal(int(b.Join.AlignGlobal), wmem.PageSize)
			}
		}
		if _, err := x.call(w, "q_init"); err != nil {
			return err
		}
	}
	sp.End(obs.I("workers", int64(len(x.ws))))
	return nil
}

// tierUpScans queues, on a module's first execution, the table-scan
// pipelines that have rows ahead (rowsAhead), the largest tables first, so
// their tier-2 code lands while the most morsels are left to run it.
func (x *executor) tierUpScans() {
	type scan struct {
		fn   uint32
		rows int
	}
	var scans []scan
	for pi, p := range x.cq.Pipelines {
		if p.Kind != PipeScanTable {
			continue
		}
		rows := x.q.Tables[p.TableIdx].Table.Rows()
		if fn, ok := x.mod.ExportedFunc(p.Export); ok && x.rowsAhead(pi, rows) {
			scans = append(scans, scan{fn, rows})
		}
	}
	slices.SortStableFunc(scans, func(a, b scan) int { return b.rows - a.rows })
	for _, s := range scans {
		x.mod.TierUp(x.tr, engine.TriggerRowsAhead, s.rows, s.fn)
	}
}

// rowsAhead is the first execution's tier-up rule: pipeline pi over total
// rows is worth optimizing when it has more morsels than workers to run
// them. Swapped-in code takes effect only at a morsel boundary, so with no
// more morsels than workers every worker has started its last morsel before
// a compile queued now could land. It reads MorselRows and the worker count,
// and nothing else. A join build's finish loop (buildJoin) follows the same
// rule with its chunks for morsels.
func (x *executor) rowsAhead(pi, total int) bool {
	workers := 1
	if x.cq.poolDriven(pi) {
		workers = len(x.ws)
	}
	return total > workers*x.opt.MorselRows
}

// drain decodes count rows from a worker's result buffer into its private
// row slice. The decode stops as soon as the query's LIMIT is satisfied —
// rows beyond it would be discarded anyway — and trips the worker's limitHit
// flag so the morsel loop short-circuits via the stop path.
func (x *executor) drain(w *worker, m *wmem.Memory, count uint32) {
	for i := uint32(0); i < count; i++ {
		if x.limit >= 0 && int64(len(w.rows)) >= x.limit {
			w.limitHit = true
			return
		}
		w.rows = append(w.rows, decodeRow(m, x.cq, i))
	}
}

// canceled reports the context's error, if it fired.
func (x *executor) canceled() error {
	if err := x.ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled: %w", err)
	}
	return nil
}

// wrapErr maps the interrupt trap raised by the cancellation watchdog back to
// the context's error, so callers see DeadlineExceeded/Canceled rather than
// an engine-internal trap.
func (x *executor) wrapErr(err error) error {
	if errors.Is(err, rt.ErrInterrupted) && x.ctx.Err() != nil {
		return fmt.Errorf("core: query canceled: %w", x.ctx.Err())
	}
	return err
}

// call invokes an export on one worker.
func (x *executor) call(w *worker, export string, args ...uint64) ([]uint64, error) {
	r, err := w.inst.Call(export, args...)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", export, x.wrapErr(err))
	}
	return r, nil
}

// callMorsel dispatches one morsel of export (function index fn) on one
// worker: faultpoint check, morsel count (the tier-up timeline is stamped
// against it), latency histogram, and — only when the trace asks for Detail
// — a per-morsel span carrying the worker id. It returns the guest's stop
// signal. Untraced, it allocates nothing.
func (x *executor) callMorsel(w *worker, fn uint32, export string, begin, end int) (bool, error) {
	if ferr := faultpoint.Hit("core-morsel"); ferr != nil {
		return false, fmt.Errorf("core: %s[%d,%d): %w", export, begin, end, ferr)
	}
	x.tr.AddMorsel()
	tm := time.Now()
	w.args = [2]uint64{uint64(uint32(begin)), uint64(uint32(end))}
	err := w.inst.CallInto(fn, w.args[:], w.res[:])
	d := time.Since(tm)
	mMorselLatency.Observe(d.Nanoseconds())
	if x.tr != nil && x.tr.Detail {
		x.tr.AddSpan(obs.SpanMorsel+export, tm, d,
			obs.I("begin", int64(begin)), obs.I("end", int64(end)),
			obs.I("worker", int64(w.id)))
	}
	if err != nil {
		return false, fmt.Errorf("core: %s[%d,%d): %w", export, begin, end, x.wrapErr(err))
	}
	return w.res[0] != 0, nil
}

// funcIndex resolves an export of the query's module to its function
// index, once per morsel loop rather than once per morsel.
func (x *executor) funcIndex(export string) (uint32, error) {
	fn, ok := x.mod.ExportedFunc(export)
	if !ok {
		return 0, fmt.Errorf("core: no exported function %q", export)
	}
	return fn, nil
}

// each runs fn on every given worker — concurrently when there is more than
// one — and returns the first error in worker order.
func (x *executor) each(ws []*worker, fn func(w *worker) error) error {
	if len(ws) == 1 {
		return fn(ws[0])
	}
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs a morsel-shaped export over rows [0, total) — the one morsel
// loop of the executor. The given workers claim morsels off one atomic
// counter (work stealing by construction; a pool of one runs inline on the
// calling goroutine), and the first error, guest stop signal or satisfied
// LIMIT halts everyone; stopped reports that one of them did. A worker whose
// scheduler slot was revoked for a newer query's fair share retires at the
// morsel boundary: the others keep claiming, and its partial state is still
// merged at the barrier, so results are unchanged.
func (x *executor) drive(ws []*worker, export string, total int) (stopped bool, err error) {
	fn, err := x.funcIndex(export)
	if err != nil {
		return false, err
	}
	var next atomic.Int64
	var stop atomic.Bool
	morsel := x.opt.MorselRows
	err = x.each(ws, func(w *worker) error {
		for !stop.Load() && !x.lease.ShouldYield(w.id) {
			if err := x.canceled(); err != nil {
				stop.Store(true)
				return err
			}
			begin := int(next.Add(int64(morsel))) - morsel
			if begin >= total {
				break
			}
			halt, err := x.callMorsel(w, fn, export, begin, min(begin+morsel, total))
			if err != nil {
				stop.Store(true)
				return err
			}
			// Host-side LIMIT guard: once the drain has LIMIT rows, the
			// remaining morsels cannot contribute.
			if halt || w.limitHit {
				stop.Store(true)
			}
		}
		return nil
	})
	return stop.Load(), err
}

// run drives the pipelines in order, each followed by the barriers the code
// generator declared on it; what a barrier reports goes on the pipeline's
// span.
func (x *executor) run() error {
	for pi, p := range x.cq.Pipelines {
		sp := x.tr.Begin(obs.SpanPipeline + p.Export)
		args, err := x.drivePipeline(pi, p)
		if err != nil {
			return err
		}
		built, err := x.runBarriers(pi)
		if err != nil {
			return err
		}
		sp.End(append(args, built...)...)
		// Fuel checkpoint at every morsel-driven pipeline's boundary on
		// metered queries — the audit trail of where the budget went.
		if x.opt.Fuel > 0 && p.Kind != PipeRunOnce {
			x.tr.Event(obs.EvFuel, obs.I("remaining", x.ws[0].inst.FuelLeft()))
		}
	}
	return nil
}

// drivePipeline runs one pipeline on the workers it belongs to and returns
// the figures for its span.
func (x *executor) drivePipeline(pi int, p PipelineInfo) ([]obs.Arg, error) {
	primary := x.ws[0]
	ws := x.ws[:1]
	if x.cq.poolDriven(pi) {
		ws = x.ws
	}
	var total int
	switch p.Kind {
	case PipeRunOnce:
		// A canceled context must be observed between consecutive run-once
		// pipelines too, not only in morsel loops.
		if err := x.canceled(); err != nil {
			return nil, err
		}
		return nil, x.each(ws, func(w *worker) error {
			_, err := x.call(w, p.Export, 0, 0)
			return err
		})
	case PipeScanTable:
		total = x.q.Tables[p.TableIdx].Table.Rows()
	case PipeScanSlots:
		total = int(uint32(primary.inst.Global(int(p.CountGlobal)))) + 1
	case PipeScanArray:
		total = int(uint32(primary.inst.Global(int(p.CountGlobal))))
	case PipeScanBuckets:
		ctrl := uint32(primary.inst.Global(int(p.CountGlobal)))
		total = int(primary.mem.U32(ctrl+4)) + 1
	}
	if x.firstRun && p.Kind != PipeScanTable && x.rowsAhead(pi, total) {
		// A table scan was judged at start; other counts are known only now.
		if fn, ok := x.mod.ExportedFunc(p.Export); ok {
			x.mod.TierUp(x.tr, engine.TriggerRowsAhead, total, fn)
		}
	}
	args := []obs.Arg{obs.I("rows", int64(total))}
	if len(ws) > 1 {
		x.stats.PipelinesParallel++
		args = append(args, obs.I("workers", int64(len(ws))))
	} else {
		x.stats.PipelinesSerial++
	}
	// Chunked rewiring drives a table scan window by window: remap the
	// window, then run morsels with window-relative row ranges. Everything
	// else is one window.
	chunked := p.Kind == PipeScanTable && x.opt.ChunkRows > 0
	window := total
	if chunked {
		window = x.opt.ChunkRows
	}
	for start := 0; start < total; start += window {
		n := min(window, total-start)
		if chunked {
			if err := x.mapChunk(p.TableIdx, start, n); err != nil {
				return nil, err
			}
		}
		if stopped, err := x.drive(ws, p.Export, n); err != nil || stopped {
			return args, err
		}
	}
	return args, nil
}

// foldStats folds the compile-side stats and runtime counters into the flat
// struct, and mirrors them onto the trace and the process-wide metrics.
func (x *executor) foldStats(mod *engine.Module, rows int) {
	stats, tr := x.stats, x.tr
	es := mod.Stats()
	if x.opt.Precompiled == nil {
		// On a plan-cache hit the module's compile phases belong to the
		// execution that populated the cache and are not reported here; the
		// first-call compiles this execution ran are on its trace.
		stats.Decode, stats.Validate = es.Decode, es.Validate
		stats.Liftoff, stats.Turbofan = es.Liftoff, es.Turbofan
	}
	stats.TurbofanFailed = es.TurbofanFailed
	var recycled, fresh int64
	for _, w := range x.ws {
		lo, tf := w.inst.TierCalls()
		stats.MorselsLiftoff += lo
		stats.MorselsTurbofan += tf
		stats.PeakMemBytes += uint64(w.mem.Pages()) * wmem.PageSize
		stats.CommittedMemBytes += uint64(w.mem.Committed()) * wmem.PageSize
		mPeakHeapPages.SetMax(int64(w.mem.Pages()))
		mPagesCommitted.Add(int64(w.mem.Committed()))
		recycled += int64(w.mem.Committed() - w.mem.Fresh())
		fresh += int64(w.mem.Fresh())
	}
	mPagesRecycled.Add(recycled)
	mPagesFresh.Add(fresh)
	if x.opt.Fuel > 0 {
		if left := x.ws[0].inst.FuelLeft(); left >= 0 {
			stats.FuelUsed = x.opt.Fuel - left
		}
		mFuelConsumed.Add(stats.FuelUsed)
	}
	if tr != nil {
		tr.Set(obs.CtrMorselsLiftoff, int64(stats.MorselsLiftoff))
		tr.Set(obs.CtrMorselsTurbofan, int64(stats.MorselsTurbofan))
		tr.Set(obs.CtrTurbofanFailed, int64(stats.TurbofanFailed))
		tr.Set(obs.CtrModuleBytes, int64(stats.ModuleBytes))
		tr.Set(obs.CtrFuelUsed, stats.FuelUsed)
		tr.Set(obs.CtrPeakMemBytes, int64(stats.PeakMemBytes))
		tr.Set(obs.CtrCommittedMemBytes, int64(stats.CommittedMemBytes))
		tr.Set(obs.CtrPagesRecycled, recycled)
		tr.Set(obs.CtrPagesFresh, fresh)
		tr.Set(obs.CtrResultRows, int64(rows))
		tr.Set(obs.CtrWorkers, int64(stats.Workers))
		tr.Set(obs.CtrPipelinesParallel, int64(stats.PipelinesParallel))
		tr.Set(obs.CtrPipelinesSerial, int64(stats.PipelinesSerial))
		tr.Set(obs.CtrGroupsMerged, int64(stats.GroupsMerged))
		tr.Set(obs.CtrJoinPartitionsMerged, int64(stats.JoinPartitionsMerged))
	}
}

// decodeRow reads result row i from guest memory.
func decodeRow(m *wmem.Memory, cq *CompiledQuery, i uint32) []types.Value {
	base := cq.ResultBase + i*cq.ResultStride
	out := make([]types.Value, len(cq.ResultFields))
	for fi, rf := range cq.ResultFields {
		addr := base + rf.Offset
		switch rf.Type.Kind {
		case types.Bool:
			out[fi] = types.NewBool(m.U8(addr) != 0)
		case types.Int32:
			out[fi] = types.NewInt32(int32(m.U32(addr)))
		case types.Date:
			out[fi] = types.NewDate(int32(m.U32(addr)))
		case types.Int64:
			out[fi] = types.NewInt64(int64(m.U64(addr)))
		case types.Decimal:
			out[fi] = types.NewDecimal(int64(m.U64(addr)), rf.Type.Prec, rf.Type.Scale)
		case types.Float64:
			out[fi] = types.NewFloat64(rtF64(m.U64(addr)))
		case types.Char:
			b := m.ReadBytes(addr, uint32(rf.Type.Length))
			end := len(b)
			for end > 0 && b[end-1] == ' ' {
				end--
			}
			out[fi] = types.NewChar(string(b[:end]), rf.Type.Length)
		}
	}
	return out
}

func rtF64(bits uint64) float64 { return rt.F64(bits) }
