// Package engine is the embeddable WebAssembly execution engine — the
// stand-in for V8 in the paper's architecture (§2.2). It decodes and
// validates binary modules, compiles every function with the baseline
// compiler (tier 1, "liftoff"), optionally with the optimizing compiler
// (tier 2, "turbofan") — synchronously or concurrently in the background —
// and dispatches each call to the best code available at that moment. Both
// compilers live in package turbofan and target one register machine with
// one run loop; a tier is a compiler, not a second VM. Background tier-up
// replaces code at function granularity via an atomic pointer swap, so a
// query that invokes its pipeline function once per morsel transparently
// migrates from baseline to optimized code mid-query, exactly the adaptive
// execution the paper delegates to the engine.
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
	mCompilesLiftoff  = obs.Default.CounterWith(obs.MetricCompiles, obs.Label{Key: "tier", Val: "liftoff"})
	mCompilesTurbofan = obs.Default.CounterWith(obs.MetricCompiles, obs.Label{Key: "tier", Val: "turbofan"})
	mTurbofanFailures = obs.Default.Counter(obs.MetricTurbofanFailures)
	mTierUpLatency    = obs.Default.Histogram(obs.MetricTierUpLatency)
	// Per-module compile latency, labeled by the tier that did the work —
	// the SLO view of "how much am I paying before (liftoff) and behind
	// (turbofan) the first morsel".
	hCompileLiftoff  = obs.Default.HistogramWith(obs.MetricEngineCompileLatency, obs.Label{Key: "tier", Val: "liftoff"})
	hCompileTurbofan = obs.Default.HistogramWith(obs.MetricEngineCompileLatency, obs.Label{Key: "tier", Val: "turbofan"})
	// Instructions emitted per tier — with the compile counters above, the
	// static code-size view of what each tier produces.
	mInstrsLiftoff  = obs.Default.CounterWith(obs.MetricEngineCodeInstrs, obs.Label{Key: "tier", Val: "liftoff"})
	mInstrsTurbofan = obs.Default.CounterWith(obs.MetricEngineCodeInstrs, obs.Label{Key: "tier", Val: "turbofan"})
)

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
	// TierAdaptive compiles with liftoff synchronously and with turbofan in
	// the background, swapping code in as it becomes ready (the default,
	// mirroring V8's Liftoff→TurboFan pipeline).
	TierAdaptive Tier = iota
	// TierLiftoff uses only the baseline compiler.
	TierLiftoff
	// TierTurbofan compiles everything with the optimizing compiler before
	// execution begins.
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
	// the module on baseline code — deferred, not forbidden — until
	// Module.EnsureOptimizing is called. This is the hook the autopilot's
	// liftoff-only decision uses: the module keeps its adaptive identity
	// (and plan-cache fingerprint), so a later feedback-corrected adaptive
	// decision on the same cached module can still kick tier-up.
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

// CompileStats records the cost of each compilation phase.
type CompileStats struct {
	Decode   time.Duration
	Validate time.Duration
	Liftoff  time.Duration
	// Turbofan is the optimizing-tier compile time. Under TierAdaptive it is
	// measured on the background goroutine and is valid after WaitOptimized.
	Turbofan  time.Duration
	CodeBytes int
	NumFuncs  int
	// TurbofanFailed counts functions whose background optimizing compile
	// failed (error or panic); those functions keep serving liftoff code.
	TurbofanFailed int
	// LiftoffInstrs and TurbofanInstrs are the instructions each tier
	// emitted, summed over the module's functions (TurbofanInstrs, like
	// Turbofan, is valid after WaitOptimized under TierAdaptive).
	LiftoffInstrs  int
	TurbofanInstrs int
}

// safeTurbofanCompile runs the optimizing compiler with panic isolation: a
// compiler bug on one function must degrade that function to baseline code,
// not crash the process (under TierAdaptive the compile runs on a background
// goroutine, where an escaped panic is fatal). The "turbofan-compile" fault
// point lets tests force a failure here.
func safeTurbofanCompile(m *wasm.Module, fn *wasm.Func, rounds int) (c *turbofan.Code, err error) {
	if ferr := faultpoint.Hit("turbofan-compile"); ferr != nil {
		return nil, ferr
	}
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, &EngineError{Val: r, Stack: debug.Stack()}
		}
	}()
	return turbofan.CompileRounds(m, fn, rounds)
}

// guestFunc dispatches calls to the best available code for one function.
type guestFunc struct {
	code atomic.Pointer[tiered]
}

type tiered struct {
	tier Tier
	c    rt.Callee
}

// Call implements rt.Callee.
func (g *guestFunc) Call(env *rt.Env, args, res []uint64) {
	g.code.Load().c.Call(env, args, res)
}

// Module is a compiled module ready for instantiation.
type Module struct {
	wmod  *wasm.Module
	funcs []*guestFunc
	// tr is the query trace the module records compile spans and tier-up
	// events into (nil when compiled without one). The background optimizer
	// and instances share it.
	tr *obs.Trace

	mu        sync.Mutex
	stats     CompileStats
	optimized chan struct{}
	optErr    error

	// Adaptive-tier bookkeeping for deferred background optimization:
	// adaptive marks the module as tier-up capable, optStart makes the kick
	// idempotent, optStarted lets WaitOptimized distinguish "deferred, never
	// kicked" (return immediately) from "running" (block), and optRounds
	// carries the engine's budget to the background compile.
	adaptive   bool
	optStart   sync.Once
	optStarted atomic.Bool
	optRounds  int
}

// Compile decodes, validates, and compiles a binary module according to the
// engine's tier configuration.
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

	m := &Module{wmod: wmod, tr: tr, optimized: make(chan struct{})}
	m.stats.Decode = t1.Sub(t0)
	m.stats.Validate = t2.Sub(t1)
	m.stats.CodeBytes = len(bin)
	m.stats.NumFuncs = len(wmod.Funcs)

	switch e.cfg.Tier {
	case TierTurbofan:
		sp := tr.Begin(obs.SpanTurbofan)
		start := time.Now()
		for i := range wmod.Funcs {
			tf, err := safeTurbofanCompile(wmod, &wmod.Funcs[i], e.optRounds())
			if err != nil {
				return nil, err
			}
			g := &guestFunc{}
			g.code.Store(&tiered{tier: TierTurbofan, c: tf})
			m.funcs = append(m.funcs, g)
			m.stats.TurbofanInstrs += tf.NumInstrs()
		}
		m.stats.Turbofan = time.Since(start)
		mCompilesTurbofan.Add(int64(len(wmod.Funcs)))
		mInstrsTurbofan.Add(int64(m.stats.TurbofanInstrs))
		hCompileTurbofan.Observe(m.stats.Turbofan.Nanoseconds())
		sp.End(obs.I("funcs", int64(len(wmod.Funcs))), obs.I("instrs", int64(m.stats.TurbofanInstrs)))
		close(m.optimized)
	default:
		sp := tr.Begin(obs.SpanLiftoff)
		start := time.Now()
		for i := range wmod.Funcs {
			lo, err := turbofan.CompileBaseline(wmod, &wmod.Funcs[i])
			if err != nil {
				return nil, err
			}
			g := &guestFunc{}
			g.code.Store(&tiered{tier: TierLiftoff, c: lo})
			m.funcs = append(m.funcs, g)
			m.stats.LiftoffInstrs += lo.NumInstrs()
		}
		m.stats.Liftoff = time.Since(start)
		mCompilesLiftoff.Add(int64(len(wmod.Funcs)))
		mInstrsLiftoff.Add(int64(m.stats.LiftoffInstrs))
		hCompileLiftoff.Observe(m.stats.Liftoff.Nanoseconds())
		sp.End(obs.I("funcs", int64(len(wmod.Funcs))), obs.I("instrs", int64(m.stats.LiftoffInstrs)))
		if e.cfg.Tier == TierAdaptive {
			m.adaptive = true
			m.optRounds = e.optRounds()
			if e.cfg.TierPolicy == nil || e.cfg.TierPolicy(len(wmod.Funcs), len(bin)) {
				m.EnsureOptimizing()
			}
		} else {
			close(m.optimized)
		}
	}
	return m, nil
}

// EnsureOptimizing starts an adaptive module's background optimization if it
// has not started yet — the tier-up kick for modules whose compile-time
// TierPolicy deferred it. Idempotent and safe for concurrent use; a no-op
// for non-adaptive modules, whose tier was final at compile time.
func (m *Module) EnsureOptimizing() {
	if !m.adaptive {
		return
	}
	m.optStart.Do(func() {
		m.optStarted.Store(true)
		go m.optimize(m.optRounds)
	})
}

// optimize runs turbofan over every function in the background, publishing
// each one as it completes. Each publish is a tier-up event stamped with
// the morsel count at that moment — the observable timeline of adaptive
// code replacement.
func (m *Module) optimize(rounds int) {
	sp := m.tr.Begin(obs.SpanTurbofan)
	start := time.Now()
	var firstErr error
	failed, instrs := 0, 0
	for i := range m.wmod.Funcs {
		tf, err := safeTurbofanCompile(m.wmod, &m.wmod.Funcs[i], rounds)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed++
			mTurbofanFailures.Add(1)
			continue // keep running on liftoff code
		}
		m.funcs[i].code.Store(&tiered{tier: TierTurbofan, c: tf})
		instrs += tf.NumInstrs()
		mCompilesTurbofan.Add(1)
		mTierUpLatency.Observe(time.Since(start).Nanoseconds())
		if m.tr != nil {
			m.tr.Event(obs.EvTierUp, obs.I("func", int64(i)), obs.I("morsel", m.tr.MorselCount()))
		}
	}
	sp.End(obs.I("funcs", int64(len(m.wmod.Funcs))), obs.I("failed", int64(failed)), obs.I("instrs", int64(instrs)))
	mInstrsTurbofan.Add(int64(instrs))
	hCompileTurbofan.Observe(time.Since(start).Nanoseconds())
	m.mu.Lock()
	m.stats.Turbofan = time.Since(start)
	m.stats.TurbofanFailed = failed
	m.stats.TurbofanInstrs = instrs
	m.optErr = firstErr
	m.mu.Unlock()
	close(m.optimized)
}

// Optimized reports, without blocking, whether background optimization has
// finished — on an adaptive module that has been alive a while (a plan-cache
// hit), true means calls dispatch straight to turbofan code.
func (m *Module) Optimized() bool {
	select {
	case <-m.optimized:
		return true
	default:
		return false
	}
}

// WaitOptimized blocks until background optimization has finished (it
// returns immediately for non-adaptive tiers) and reports any compile error;
// execution continues on baseline code for functions that failed. An
// adaptive module whose TierPolicy deferred optimization and that was never
// kicked has no background work to wait for and returns immediately.
func (m *Module) WaitOptimized() error {
	if m.adaptive && !m.optStarted.Load() {
		return nil
	}
	<-m.optimized
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.optErr
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
	env := &rt.Env{Types: wm.Types}

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
	for i, g := range m.funcs {
		env.Funcs = append(env.Funcs, g)
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

	inst := &Instance{mod: m, env: env, tr: tr}
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
func (i *Instance) CallIndex(idx uint32, args ...uint64) (results []uint64, err error) {
	if idx >= uint32(len(i.env.Funcs)) {
		return nil, fmt.Errorf("engine: function index %d out of range", idx)
	}
	ft := i.mod.wmod.Types[i.env.FuncTypes[idx]]
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("engine: function expects %d arguments, got %d", len(ft.Params), len(args))
	}
	// Record which tier serves this call, for adaptive-execution stats.
	if g, ok := i.env.Funcs[idx].(*guestFunc); ok {
		if g.code.Load().tier == TierTurbofan {
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
	res := make([]uint64, len(ft.Results))
	i.env.Funcs[idx].Call(i.env, args, res)
	return res, nil
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

// WaitOptimized blocks until the instance's module finished background
// optimization.
func (i *Instance) WaitOptimized() error { return i.mod.WaitOptimized() }
