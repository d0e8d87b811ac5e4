// Package engine is the embeddable WebAssembly execution engine — the
// stand-in for V8 in the paper's architecture (§2.2). It decodes and
// validates binary modules up front, compiles each function with the
// baseline compiler (tier 1, "liftoff") on its first call, as V8 does, and
// with the optimizing compiler (tier 2, "turbofan") in the background for the
// functions the embedder queues with Module.TierUp, and dispatches each call
// to the best code available at that moment. Each function has one code slot,
// and one path compiles code and publishes it there, for the first call, the
// tier-up drain and the forced tiers alike; a forced tier runs it for every
// function up front, only for the repo benchmark's probe. Both compilers live
// in package turbofan and target one register machine with one run loop; a
// tier is a compiler, not a second VM. Background tier-up replaces code at
// function granularity via an atomic pointer swap, so a query that invokes its
// pipeline function once per morsel transparently migrates from baseline to
// optimized code mid-query, exactly the adaptive execution the paper
// delegates to the engine. Like V8's dynamic tiering, the engine optimizes
// only what it is told is worth it: the executor queues a pipeline when some
// worker will still start a morsel of it after the compile can land, and a
// whole module once it runs again.
package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/turbofan"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
	"wasmdb/internal/wasm"
)

// Process-wide engine metrics, resolved once so recording is atomic-only.
var (
	mTurbofanFailures = obs.Default.Counter(obs.MetricTurbofanFailures)
	mTierUpLatency    = obs.Default.Histogram(obs.MetricTierUpLatency)
	mTier             = [...]tierMetrics{TierLiftoff: newTierMetrics(TierLiftoff, obs.SpanLiftoff), TierTurbofan: newTierMetrics(TierTurbofan, obs.SpanTurbofan)}
)

// tierMetrics is a compiling tier's entry in mTier: the name its compile span
// and fault point share, and its metrics labeled by tier — functions compiled,
// instructions emitted, and compile latency per forced module, per drain of
// the tier-up queue (turbofan) and per instance whose calls compiled
// functions (liftoff): what is paid in front of and behind the morsels.
type tierMetrics struct {
	span             string
	compiles, instrs *obs.Counter
	latency          *obs.Histogram
}

func newTierMetrics(t Tier, span string) tierMetrics {
	l := obs.Label{Key: "tier", Val: t.String()}
	return tierMetrics{span, obs.Default.CounterWith(obs.MetricCompiles, l),
		obs.Default.CounterWith(obs.MetricEngineCodeInstrs, l), obs.Default.HistogramWith(obs.MetricEngineCompileLatency, l)}
}

// Typed guardrail sentinels, re-exported so embedders need not import the
// runtime packages. Match with errors.Is against any error returned from
// Instance calls.
var (
	// ErrFuelExhausted reports that an instance ran out of its SetFuel budget.
	ErrFuelExhausted = rt.ErrFuelExhausted
	// ErrInterrupted reports that Interrupt stopped the instance mid-call.
	ErrInterrupted = rt.ErrInterrupted
	// ErrMemoryLimit reports that a SetMemoryBudget heap budget was exceeded.
	ErrMemoryLimit = wmem.ErrMemoryLimit
)

// EngineError wraps a panic that escaped guest or engine code without being a
// recognized trap — an engine bug rather than a guest fault. The call
// boundary converts it into an error so one bad query cannot take down the
// host process, and Stack preserves the evidence.
type EngineError struct {
	Val   any
	Stack []byte
}

func (e *EngineError) Error() string {
	return fmt.Sprintf("engine: internal panic: %v", e.Val)
}

// Tier selects the compilation strategy.
type Tier int

// Available tiers.
const (
	// TierAdaptive compiles a function with liftoff on its first call and
	// with turbofan in the background, swapping code in as it becomes ready
	// (the default, mirroring V8's Liftoff→TurboFan pipeline with lazy
	// compilation). Only the functions queued with Module.TierUp are
	// optimized, in the order they were queued; WaitOptimized queues the
	// rest. A function optimized before its first call is never compiled by
	// liftoff.
	TierAdaptive Tier = iota
	// TierLiftoff and TierTurbofan compile every function with that one
	// compiler, through the same slot path, in Compile: up front only for
	// the repo benchmark's probe, which reads Stats right after Compile.
	TierLiftoff
	TierTurbofan
)

func (t Tier) String() string {
	switch t {
	case TierAdaptive:
		return "adaptive"
	case TierLiftoff:
		return "liftoff"
	case TierTurbofan:
		return "turbofan"
	}
	return "unknown"
}

// Config configures an Engine.
type Config struct {
	Tier Tier
	// OptRounds exists only to model the HyPer-like baseline's compile cost:
	// values above turbofan.DefaultOptRounds (the default) repeat the
	// optimizing tier's dead-code elimination, spending the time a heavier,
	// LLVM-grade pipeline would; the code it yields for the TPC-H queries is
	// the same as with one round.
	OptRounds int
	// TierPolicy, when non-nil under TierAdaptive, gates background
	// optimization per compiled module: Compile consults it once with the
	// module's function count and binary size, and a false return leaves
	// the module on baseline code for good, as TierLiftoff would. Its one
	// setter is the repo benchmark's liftoff-only branch (benchmark/layers.go),
	// which the autopilot no longer takes, as it always chooses adaptive
	// execution; the public API never sets it.
	TierPolicy func(numFuncs, codeBytes int) bool
}

// Engine compiles modules. It is stateless and safe for concurrent use.
type Engine struct {
	cfg Config
}

// New creates an engine.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

func (e *Engine) optRounds() int {
	if e.cfg.OptRounds > 0 {
		return e.cfg.OptRounds
	}
	return turbofan.DefaultOptRounds
}

// CompileStats records the cost of each compilation phase. Every tier field
// is summed per function by the one path that fills a code slot, as each
// compile finishes: under a forced tier all of them within Compile, under
// TierAdaptive tier 1 on first calls (0 before the module ran) and tier 2 as
// the drain finishes what was queued (complete after WaitQueued).
type CompileStats struct {
	Decode    time.Duration
	Validate  time.Duration
	Liftoff   time.Duration
	Turbofan  time.Duration
	CodeBytes int
	NumFuncs  int
	// TurbofanFailed counts functions whose optimizing compile failed (error
	// or panic); under TierAdaptive they keep serving liftoff code.
	TurbofanFailed int
	// LiftoffFuncs counts the functions the baseline tier has compiled, and
	// LiftoffInstrs and TurbofanInstrs the instructions each tier emitted.
	LiftoffFuncs   int
	LiftoffInstrs  int
	TurbofanInstrs int
}

// guestFunc dispatches calls to the best available code for one function.
// Under TierAdaptive it starts as a stub without code, and its first call
// compiles the function (compile).
type guestFunc struct {
	code atomic.Pointer[tiered]
	mod  *Module
	def  int // module-defined function index
	// mu makes the first-call compile run once: callers that arrive while it
	// runs wait for its code.
	mu sync.Mutex
}

type tiered struct {
	tier Tier
	c    rt.Callee
}

// Call implements rt.Callee.
func (g *guestFunc) Call(env *rt.Env, args, res []uint64) {
	t := g.code.Load()
	if t == nil {
		t = g.compile(env)
	}
	t.c.Call(env, args, res)
}

// compileError carries a failed first-call compile out of guest code to
// CallInto, which returns it as the call's error.
type compileError struct{ err error }

// compile is a stub's first call: it compiles the function with liftoff on
// the caller's goroutine (compileTier), holding the stub's mutex so that
// callers arriving meanwhile wait for its code, and tallies the compile on
// env. A failure panics with a compileError and leaves the stub in place, so
// a later call tries again.
func (g *guestFunc) compile(env *rt.Env) *tiered {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t := g.code.Load(); t != nil {
		return t
	}
	start := time.Now()
	t, n, d, err := g.compileTier(TierLiftoff)
	if err != nil {
		panic(&compileError{err})
	}
	c := env.Compiled
	if c == nil {
		c = &rt.CompileTally{Start: start}
		env.Compiled = c
	}
	c.Funcs++
	c.Instrs += n
	c.Dur += d
	return t
}

// compileTier is the one way code enters a function's slot: the first-call
// stub, the tier-up drain and a forced tier's Compile all call it. It hits
// the tier's fault point ("liftoff-compile" or "turbofan-compile") and runs
// the tier's compiler, a panic in either becoming an *EngineError, before
// it takes the module's lock. It publishes the code by one rule: tier-2 code replaces
// whatever the slot holds, and tier-1 code fills only an empty slot, so it
// never replaces tier-2 code the drain published meanwhile (t is then the
// slot's code). Last it records the compile in the module's CompileStats and
// the tier's process metrics; a tier-2 compile, done or failed, settles the
// function, and the first failed one is the module's optErr.
func (g *guestFunc) compileTier(tier Tier) (t *tiered, instrs int, d time.Duration, err error) {
	m, tm, fn := g.mod, &mTier[tier], &g.mod.wmod.Funcs[g.def]
	start := time.Now()
	var c *turbofan.Code
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = &EngineError{Val: r, Stack: debug.Stack()}
			}
		}()
		if err = faultpoint.Hit(tm.span); err != nil {
			err = fmt.Errorf("%s: %s: %w", tier, fn.Name, err)
		} else if tier == TierTurbofan {
			c, err = turbofan.CompileRounds(m.wmod, fn, m.rounds)
		} else {
			c, err = turbofan.CompileBaseline(m.wmod, fn)
		}
	}()
	d = time.Since(start)
	if err == nil {
		instrs, t = c.NumInstrs(), &tiered{tier: tier, c: c}
		if tier == TierTurbofan {
			g.code.Store(t)
		} else if !g.code.CompareAndSwap(nil, t) {
			t = g.code.Load()
		}
		tm.compiles.Add(1)
		tm.instrs.Add(int64(instrs))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case tier == TierLiftoff && err == nil:
		m.stats.Liftoff += d
		m.stats.LiftoffFuncs++
		m.stats.LiftoffInstrs += instrs
	case tier == TierTurbofan:
		m.stats.Turbofan += d
		m.stats.TurbofanInstrs += instrs
		if err != nil {
			mTurbofanFailures.Add(1) // the function keeps running on liftoff code
			m.stats.TurbofanFailed++
			if m.optErr == nil {
				m.optErr = err
			}
		}
		m.settled.Add(1)
	}
	return t, instrs, d, err
}

// Why functions join the tier-up queue: the trigger a tier-up-queued event
// records.
const (
	// TriggerRowsAhead: a pipeline with more morsels still ahead than
	// workers to run them, so some worker starts a morsel after the compile.
	TriggerRowsAhead = "rows-ahead"
	// TriggerRerun: a module executed again, so all of it can pay.
	TriggerRerun = "rerun"
	// TriggerWait: WaitOptimized, which asks for pure tier-2 execution.
	TriggerWait = "wait"
)

// Module is a compiled module ready for instantiation.
type Module struct {
	wmod  *wasm.Module
	funcs []guestFunc
	// tr is the query trace the module records compile spans and tier-up
	// events into (nil when compiled without one). Instances share it, and
	// WaitOptimized queues into it.
	tr *obs.Trace
	// rounds is the optimizing tier's round count (Engine.optRounds).
	rounds int
	// runs counts CountRun calls: how often the module was executed.
	runs atomic.Int64
	// allQueued is set once every function has entered the tier-up queue —
	// from the start when the module never tiers up in the background — so
	// TierUp is then one atomic load.
	allQueued atomic.Bool
	// settled counts functions whose tier-2 compile finished or failed.
	settled atomic.Int64

	mu     sync.Mutex
	stats  CompileStats
	optErr error
	// queued marks the module-defined functions that entered the tier-up
	// queue; nQueued counts them.
	queued  []bool
	nQueued int
	// queue holds the queued functions not yet taken by the drain goroutine,
	// first in, first out.
	queue []tierJob
	// drained is closed when the running drain goroutine exits, with the
	// queue empty; nil before the first TierUp. draining says one runs.
	drained  chan struct{}
	draining bool
}

// tierJob is one queued function: its module-defined index, the trace its
// publication is recorded on, and when it was queued.
type tierJob struct {
	def int
	tr  *obs.Trace
	at  time.Time
}

// Compile decodes and validates a binary module and compiles it according
// to the engine's tier configuration: every function up front under the
// forced tiers, none under TierAdaptive, whose functions compile on their
// first call.
func (e *Engine) Compile(bin []byte) (*Module, error) {
	return e.CompileTraced(bin, nil)
}

// CompileTraced is Compile recording phase spans (decode, validate, liftoff,
// turbofan) and tier-up events into tr. tr may be nil.
func (e *Engine) CompileTraced(bin []byte, tr *obs.Trace) (*Module, error) {
	t0 := time.Now()
	wmod, err := wasm.Decode(bin)
	t1 := time.Now()
	tr.AddSpan(obs.SpanDecode, t0, t1.Sub(t0))
	if err != nil {
		return nil, err
	}
	verr := wasm.Validate(wmod)
	t2 := time.Now()
	tr.AddSpan(obs.SpanValidate, t1, t2.Sub(t1))
	if verr != nil {
		return nil, verr
	}

	m := &Module{wmod: wmod, tr: tr, rounds: e.optRounds(), funcs: make([]guestFunc, len(wmod.Funcs))}
	m.stats.Decode = t1.Sub(t0)
	m.stats.Validate = t2.Sub(t1)
	m.stats.CodeBytes = len(bin)
	m.stats.NumFuncs = len(wmod.Funcs)
	for i := range m.funcs {
		m.funcs[i].mod, m.funcs[i].def = m, i
	}

	switch tier := e.cfg.Tier; tier {
	case TierLiftoff, TierTurbofan:
		// A forced tier compiles every function here, in one span of its
		// tier, through the slot path a first call takes. It is eager only
		// because the repo benchmark's traced pass reads Stats right after
		// Compile; once that reader is gone (ROADMAP 2(c)) a forced tier can
		// be a stub with a fixed compiler.
		sp := tr.Begin(mTier[tier].span)
		instrs := 0
		for i := range m.funcs {
			_, n, _, err := m.funcs[i].compileTier(tier)
			if err != nil {
				return nil, err
			}
			instrs += n
		}
		mTier[tier].latency.Observe(time.Since(t2).Nanoseconds())
		n := int64(len(m.funcs))
		sp.End(obs.I("funcs", n), obs.I("of", n), obs.I("instrs", int64(instrs)))
		m.settle()
	default:
		if e.cfg.TierPolicy == nil || e.cfg.TierPolicy(len(wmod.Funcs), len(bin)) {
			m.queued = make([]bool, len(wmod.Funcs))
		} else {
			m.settle()
		}
	}
	return m, nil
}

// settle marks a module that never tiers up in the background as fully
// queued, so TierUp does nothing and WaitOptimized returns at once.
func (m *Module) settle() { m.allQueued.Store(true) }

// EnsureOptimizing does nothing: an adaptive module tiers up what its
// executions queue. It remains because the repo benchmark's traced pass
// (benchmark/layers.go) still calls it.
func (m *Module) EnsureOptimizing() {}

// ExportedFunc returns the function index exported under name — the index
// space TierUp and Instance.CallIndex use (imports first).
func (m *Module) ExportedFunc(name string) (uint32, bool) { return m.wmod.ExportedFunc(name) }

// CountRun records one execution of the module and returns how many came
// before it: 0 marks the first run, when only what is still ahead of it is
// worth optimizing; a later run may queue the whole module.
func (m *Module) CountRun() int64 { return m.runs.Add(1) - 1 }

// TierUp queues funcs (function indices; every function when none is given)
// for background optimization, each with its static callees: the transitive
// call targets and, for a call_indirect, every table entry, read from the
// bodies as they are queued. A function already queued is skipped, and so
// is an imported one. One drain goroutine per module compiles the queue in
// order, publishes each function through the atomic code swap and exits when
// the queue is empty. tr receives a tier-up-queued event per newly queued
// function carrying trigger and rows, and the tier-up event of its
// publication. Under TierLiftoff, TierTurbofan or a TierPolicy veto TierUp
// does nothing; once every function is queued it is one atomic load.
func (m *Module) TierUp(tr *obs.Trace, trigger string, rows int, funcs ...uint32) {
	if m.allQueued.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.queue)
	if len(funcs) == 0 {
		for def := range m.funcs {
			m.enqueue(def, tr, trigger, rows)
		}
	} else {
		nImp := uint32(m.wmod.NumImportedFuncs())
		for _, f := range funcs {
			if f >= nImp && int(f-nImp) < len(m.funcs) {
				m.enqueue(int(f-nImp), tr, trigger, rows)
			}
		}
		// The queue grew only by the functions above; take their callees in
		// queue order, which appends theirs in turn.
		for i := n; i < len(m.queue); i++ {
			m.enqueueCallees(m.queue[i].def, tr, trigger, rows)
		}
	}
	if m.nQueued == len(m.funcs) {
		m.allQueued.Store(true)
	}
	if len(m.queue) > n && !m.draining {
		m.draining = true
		m.drained = make(chan struct{})
		go m.drain(m.drained, tr)
	}
}

// enqueue appends module-defined function def to the queue unless it was
// queued before. The caller holds m.mu.
func (m *Module) enqueue(def int, tr *obs.Trace, trigger string, rows int) {
	if m.queued[def] {
		return
	}
	m.queued[def] = true
	m.nQueued++
	m.queue = append(m.queue, tierJob{def: def, tr: tr, at: time.Now()})
	tr.Event(obs.EvTierUpQueued, obs.I("func", int64(def+m.wmod.NumImportedFuncs())),
		obs.I("rows", int64(rows)), obs.S("trigger", trigger))
}

// enqueueCallees queues the functions def calls directly: call targets and,
// for a call_indirect, every table entry. The caller holds m.mu.
func (m *Module) enqueueCallees(def int, tr *obs.Trace, trigger string, rows int) {
	nImp := uint64(m.wmod.NumImportedFuncs())
	callee := func(f uint64) {
		if f >= nImp {
			m.enqueue(int(f-nImp), tr, trigger, rows)
		}
	}
	var in wasm.Instr
	// The module was validated, so every body reads to its end.
	for r := wasm.NewReader(m.wmod.Funcs[def].Code); r.Next(&in); {
		switch in.Op {
		case wasm.OpCall:
			callee(in.A)
		case wasm.OpCallIndirect:
			for _, seg := range m.wmod.Elems {
				for _, f := range seg.Funcs {
					callee(uint64(f))
				}
			}
		}
	}
}

// drain is the module's drain goroutine: it compiles the queued functions in
// order with turbofan and publishes each one as it completes, until the
// queue is empty; then it closes done. Each publish is a tier-up event
// stamped with the morsel count at that moment — the observable timeline of
// adaptive code replacement. One turbofan span, on the trace of the TierUp
// call that started it, covers the goroutine's life.
func (m *Module) drain(done chan struct{}, tr *obs.Trace) {
	sp := tr.Begin(obs.SpanTurbofan)
	start := time.Now()
	funcs, failed, instrs := 0, 0, 0
	nImp := m.wmod.NumImportedFuncs()
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.queue, m.draining = nil, false
			m.mu.Unlock()
			break
		}
		job := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()

		_, n, _, err := m.funcs[job.def].compileTier(TierTurbofan)
		funcs, instrs = funcs+1, instrs+n
		if err != nil {
			failed++
			continue
		}
		mTierUpLatency.Observe(time.Since(job.at).Nanoseconds())
		job.tr.Event(obs.EvTierUp, obs.I("func", int64(job.def+nImp)), obs.I("morsel", job.tr.MorselCount()))
	}
	sp.End(obs.I("funcs", int64(funcs)), obs.I("failed", int64(failed)), obs.I("instrs", int64(instrs)))
	mTier[TierTurbofan].latency.Observe(time.Since(start).Nanoseconds())
	close(done)
}

// Optimized reports, without blocking, whether every function has been
// compiled by the optimizing tier (or failed to be): at once under
// TierTurbofan, never under TierLiftoff or a TierPolicy veto, and under
// TierAdaptive once the background optimizer has compiled every function —
// on a module that has been alive a while (a plan-cache hit), true means
// calls dispatch straight to turbofan code.
func (m *Module) Optimized() bool {
	return m.settled.Load() == int64(len(m.funcs))
}

// WaitQueued blocks until the background optimizer has finished every
// function queued so far (it returns at once when nothing is queued) and
// reports the first compile error; functions that failed keep running on
// baseline code. It queues nothing itself.
func (m *Module) WaitQueued() error {
	m.mu.Lock()
	done := m.drained
	m.mu.Unlock()
	if done != nil {
		<-done
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.optErr
}

// WaitOptimized asks for pure tier-2 execution: it queues every function not
// yet queued (trigger "wait", recorded on the module's compile trace) and
// blocks until all of them are optimized. It returns immediately for
// non-adaptive tiers and for a module TierPolicy kept on baseline code, and
// reports any compile error; execution continues on baseline code for
// functions that failed.
func (m *Module) WaitOptimized() error {
	m.TierUp(m.tr, TriggerWait, 0)
	return m.WaitQueued()
}

// Stats returns the compile statistics gathered so far.
func (m *Module) Stats() CompileStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Imports supplies the host side of a module's imports.
type Imports struct {
	// Funcs maps "module.name" to host implementations.
	Funcs map[string]*rt.HostFunc
	// Memory satisfies a memory import — this is the SetModuleMemory() of
	// the paper: the instance operates directly on host-managed memory.
	Memory *wmem.Memory
}

// Instance is an instantiated module.
type Instance struct {
	mod *Module
	env *rt.Env
	// ownMem is set when the module defined its memory itself (rather than
	// importing the host's), so Close releases it.
	ownMem bool

	// tr receives this instance's tier-switch events. It defaults to the
	// module's compile trace but can differ when a cached module is shared
	// across queries (InstantiateWithTrace) — each execution's events land
	// on its own trace.
	tr *obs.Trace

	// Per-tier counts of exported calls, for observing adaptive switching.
	callsLiftoff  atomic.Uint64
	callsTurbofan atomic.Uint64
	// tierSeen marks functions whose first turbofan-served call was already
	// recorded as a tier-switch event. Allocated only when the instance
	// carries a trace, so untraced dispatch pays nothing.
	tierSeen []atomic.Bool
}

// Instantiate links a compiled module against imports, initializes globals,
// table, and data segments, and runs the start function if present. The
// instance reports tier-switch events to the module's compile trace.
func (m *Module) Instantiate(imp Imports) (*Instance, error) {
	return m.InstantiateWithTrace(imp, m.tr)
}

// InstantiateWithTrace is Instantiate with the instance's tier-switch events
// routed to tr instead of the module's compile trace — the shape a plan
// cache needs, where one compiled module outlives the query that compiled it
// and each execution records into its own trace. tr may be nil.
func (m *Module) InstantiateWithTrace(imp Imports, tr *obs.Trace) (*Instance, error) {
	wm := m.wmod
	env := rt.NewEnv(wm.Types)

	// Resolve imports.
	for _, im := range wm.Imports {
		switch im.Kind {
		case wasm.ExternFunc:
			key := im.Module + "." + im.Name
			hf := imp.Funcs[key]
			if hf == nil {
				return nil, fmt.Errorf("engine: unresolved function import %q", key)
			}
			if !hf.Type.Equal(wm.Types[im.Type]) {
				return nil, fmt.Errorf("engine: import %q signature mismatch: host %v, module %v", key, hf.Type, wm.Types[im.Type])
			}
			env.Funcs = append(env.Funcs, hf)
			env.FuncTypes = append(env.FuncTypes, im.Type)
		case wasm.ExternMemory:
			if imp.Memory == nil {
				return nil, errors.New("engine: module imports memory but none provided")
			}
			if imp.Memory.Pages() < im.Mem.Min {
				return nil, fmt.Errorf("engine: imported memory has %d pages, module requires %d", imp.Memory.Pages(), im.Mem.Min)
			}
			env.Mem = imp.Memory
		case wasm.ExternGlobal, wasm.ExternTable:
			return nil, errors.New("engine: global/table imports not supported")
		}
	}
	for i := range m.funcs {
		env.Funcs = append(env.Funcs, &m.funcs[i])
		env.FuncTypes = append(env.FuncTypes, wm.Funcs[i].Type)
	}

	// Memory.
	if wm.HasMemory {
		if env.Mem != nil {
			return nil, errors.New("engine: module both imports and defines memory")
		}
		maxPages := wm.Memory.Max
		if !wm.Memory.HasMax {
			maxPages = 65536
		}
		env.Mem = wmem.New(wm.Memory.Min, maxPages)
	}

	// Globals.
	for _, g := range wm.Globals {
		env.Globals = append(env.Globals, g.Init)
	}

	// Table and element segments.
	if wm.HasTable {
		env.Table = make([]uint32, wm.TableMin)
		for i := range env.Table {
			env.Table[i] = ^uint32(0)
		}
		for _, seg := range wm.Elems {
			if int(seg.Offset)+len(seg.Funcs) > len(env.Table) {
				return nil, errors.New("engine: element segment out of bounds")
			}
			copy(env.Table[seg.Offset:], seg.Funcs)
		}
	}

	// Data segments.
	for _, d := range wm.Data {
		if env.Mem == nil {
			return nil, errors.New("engine: data segment without memory")
		}
		if uint64(d.Offset)+uint64(len(d.Bytes)) > uint64(env.Mem.Pages())*wmem.PageSize {
			return nil, errors.New("engine: data segment out of bounds")
		}
		env.Mem.WriteBytes(d.Offset, d.Bytes)
	}

	inst := &Instance{mod: m, env: env, tr: tr, ownMem: wm.HasMemory}
	if tr != nil {
		inst.tierSeen = make([]atomic.Bool, len(env.Funcs))
	}
	if wm.Start >= 0 {
		if _, err := inst.CallIndex(uint32(wm.Start)); err != nil {
			return nil, fmt.Errorf("engine: start function: %w", err)
		}
	}
	return inst, nil
}

// Memory returns the instance's linear memory.
func (i *Instance) Memory() *wmem.Memory { return i.env.Mem }

// Close records the functions the instance's calls compiled as one liftoff
// span on its trace (args funcs, of — the module's function count — and
// instrs), returns the frame arena to the pool and releases the memory the
// module defined itself (wmem.Memory.Release). An imported memory belongs to
// the host, which releases it. The instance must not be called afterwards;
// closing twice is a no-op.
func (i *Instance) Close() {
	if c := i.env.Compiled; c != nil {
		i.tr.AddSpan(obs.SpanLiftoff, c.Start, c.Dur, obs.I("funcs", int64(c.Funcs)),
			obs.I("of", int64(len(i.mod.funcs))), obs.I("instrs", int64(c.Instrs)))
		mTier[TierLiftoff].latency.Observe(c.Dur.Nanoseconds())
		i.env.Compiled = nil
	}
	i.env.Release()
	if i.ownMem {
		i.env.Mem.Release()
	}
}

// Global returns the current value of a module-defined global.
func (i *Instance) Global(idx int) uint64 { return i.env.Globals[idx] }

// SetGlobal overwrites a module-defined global — how the executor sets a
// knob the generated code reads (the chunk alignment of join builds) before
// q_init. Callers must not race it with a running call on the same instance.
func (i *Instance) SetGlobal(idx int, v uint64) { i.env.Globals[idx] = v }

// Call invokes an exported function by name. Raw 64-bit argument and result
// values follow the wasm value representation.
func (i *Instance) Call(name string, args ...uint64) ([]uint64, error) {
	idx, ok := i.mod.wmod.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("engine: no exported function %q", name)
	}
	return i.CallIndex(idx, args...)
}

// CallIndex invokes a function by index.
func (i *Instance) CallIndex(idx uint32, args ...uint64) ([]uint64, error) {
	if idx >= uint32(len(i.env.Funcs)) {
		return nil, fmt.Errorf("engine: function index %d out of range", idx)
	}
	res := make([]uint64, len(i.mod.wmod.Types[i.env.FuncTypes[idx]].Results))
	if err := i.CallInto(idx, args, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CallInto is CallIndex writing the results into res, which must have
// exactly one slot per result: with args and res owned by the caller, a
// call allocates nothing — the form the executor's morsel loop uses.
func (i *Instance) CallInto(idx uint32, args, res []uint64) (err error) {
	if idx >= uint32(len(i.env.Funcs)) {
		return fmt.Errorf("engine: function index %d out of range", idx)
	}
	ft := i.mod.wmod.Types[i.env.FuncTypes[idx]]
	if len(args) != len(ft.Params) {
		return fmt.Errorf("engine: function expects %d arguments, got %d", len(ft.Params), len(args))
	}
	if len(res) != len(ft.Results) {
		return fmt.Errorf("engine: function returns %d results, got room for %d", len(ft.Results), len(res))
	}
	// Record which tier serves this call, for adaptive-execution stats: a
	// function not compiled yet is about to be, by liftoff.
	if g, ok := i.env.Funcs[idx].(*guestFunc); ok {
		if t := g.code.Load(); t != nil && t.tier == TierTurbofan {
			i.callsTurbofan.Add(1)
			// First turbofan-served call of a traced function marks the
			// moment dispatch actually switched tiers (tier-up is when the
			// code was published; this is when it started running).
			if i.tierSeen != nil && !i.tierSeen[idx].Swap(true) {
				i.tr.Event(obs.EvTierSwitch,
					obs.I("func", int64(idx)), obs.I("morsel", i.tr.MorselCount()))
			}
		} else {
			i.callsLiftoff.Add(1)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			switch t := r.(type) {
			case *compileError:
				err = t.err
			case *rt.TrapError:
				err = t
			case *wmem.Trap:
				err = t
			default:
				// Unknown panic: an engine bug, not a guest trap. Contain it
				// as a typed error with the stack instead of crashing the
				// host; Reset below leaves the instance reusable.
				err = &EngineError{Val: r, Stack: debug.Stack()}
			}
			i.env.Reset()
		}
	}()
	if ferr := faultpoint.Hit("engine-call-panic"); ferr != nil {
		panic(ferr.Error())
	}
	i.env.Funcs[idx].Call(i.env, args, res)
	return nil
}

// SetFuel installs an execution budget of n units on the instance (n <= 0
// disables metering) and clears any pending interrupt. Fuel is charged per
// function entry and per taken loop back-edge; exhaustion traps the current
// call with ErrFuelExhausted and the instance stays usable after re-fueling.
func (i *Instance) SetFuel(n int64) { i.env.SetFuel(n) }

// FuelLeft reports the remaining fuel (-1 when unmetered).
func (i *Instance) FuelLeft() int64 { return i.env.FuelLeft() }

// Interrupt stops a metered instance at its next fuel check, trapping the
// in-flight call with ErrInterrupted. Safe to call from another goroutine —
// it is how context cancellation reaches inside a running morsel.
func (i *Instance) Interrupt() { i.env.Interrupt() }

// SetMemoryBudget caps the instance's linear memory at the given total size
// in pages; a memory.grow beyond it traps with ErrMemoryLimit. Zero removes
// the budget. No-op for instances without memory.
func (i *Instance) SetMemoryBudget(pages uint32) {
	if i.env.Mem != nil {
		i.env.Mem.SetBudget(pages)
	}
}

// TierCalls reports how many exported calls were served by each tier since
// instantiation — the observable trace of adaptive code replacement.
func (i *Instance) TierCalls() (liftoffCalls, turbofanCalls uint64) {
	return i.callsLiftoff.Load(), i.callsTurbofan.Load()
}
