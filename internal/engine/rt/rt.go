// Package rt holds the runtime types shared by the engine and its run loop.
// It defines the call convention between compiled functions, the execution
// environment (memory, globals, function table), and trap handling.
package rt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// MaxCallDepth bounds guest recursion; exceeding it traps.
const MaxCallDepth = 20000

// ErrFuelExhausted reports that a fuel-metered instance ran out of its
// execution budget. Compiled code consumes fuel at loop back-edges and function
// entries, so even generated code the host cannot otherwise interrupt
// mid-morsel is bounded.
var ErrFuelExhausted = errors.New("wasm trap: fuel exhausted")

// ErrInterrupted reports that a fuel-metered instance was stopped by
// Env.Interrupt — the mechanism behind context cancellation taking effect
// inside a running morsel.
var ErrInterrupted = errors.New("wasm trap: execution interrupted")

// Callee is anything invocable by guest code: a tiered guest function or a
// host function. Args and res may alias the caller's operand stack; a callee
// must consume args before producing res.
type Callee interface {
	Call(env *Env, args, res []uint64)
}

// HostFunc adapts a Go function to the guest call convention.
type HostFunc struct {
	Type wasm.FuncType
	Fn   func(env *Env, args, res []uint64)
}

// Call implements Callee.
func (h *HostFunc) Call(env *Env, args, res []uint64) { h.Fn(env, args, res) }

// Env is the per-instance execution environment shared by all frames.
type Env struct {
	Mem     *wmem.Memory
	Globals []uint64
	// Funcs maps function index (imports first) to callable code.
	Funcs []Callee
	// FuncTypes maps function index to its type index; Types is the module
	// type section. Both serve call_indirect signature checks.
	FuncTypes []uint32
	Types     []wasm.FuncType
	// Table is the funcref table; entries are function indices, ^0 if null.
	Table []uint32
	Depth int

	// Metered enables fuel accounting (set via SetFuel). The run loop
	// checks it before touching the fuel counter so unmetered execution
	// pays a single predictable branch per back-edge.
	Metered bool

	// arena is the shared arena the register frames are carved from. NewEnv
	// takes it from arenaPool and Release hands it back; box is the pool's
	// handle for it (nil until the arena was pooled once).
	arena []uint64
	top   int
	box   *[]uint64

	// fuel is the remaining execution budget. Only the goroutine running
	// guest code on this Env reads or writes it, so it is a plain integer.
	// interrupted is set by Interrupt from another goroutine (the
	// executor's cancellation watchdog), hence an atomic.
	fuel        int64
	interrupted atomic.Bool

	// Compiled sums the compiles that calls on this Env ran (nil until the
	// first): the engine compiles a function on its first call, on the
	// caller's goroutine. Only the goroutine running guest code on the Env
	// touches it.
	Compiled *CompileTally
}

// CompileTally sums first-call compiles: how many functions, the
// instructions they emitted, when the first one began and how long they took
// together.
type CompileTally struct {
	Funcs, Instrs int
	Start         time.Time
	Dur           time.Duration
}

// arenaPool recycles frame arenas across instances. Entries are *[]uint64,
// so a Put stores a pointer and allocates nothing.
var arenaPool sync.Pool

// TrapError is a non-memory trap (unreachable, division by zero, bad
// conversion, indirect call failure, stack or fuel exhaustion).
type TrapError struct {
	Msg string
	// Cause, when non-nil, is the typed sentinel behind the trap
	// (ErrFuelExhausted, ErrInterrupted) reachable via errors.Is.
	Cause error
}

func (t *TrapError) Error() string { return "wasm trap: " + t.Msg }

// Unwrap exposes the typed cause to errors.Is/errors.As.
func (t *TrapError) Unwrap() error { return t.Cause }

// Trap panics with a TrapError; the engine recovers it at the call boundary.
func Trap(format string, args ...any) {
	panic(&TrapError{Msg: fmt.Sprintf(format, args...)})
}

// NewEnv returns an Env for a module with the given type section, its frame
// arena taken from the pool when one is there. A pooled arena needs no
// clearing: Frame zeroes the slots it carves.
func NewEnv(types []wasm.FuncType) *Env {
	e := &Env{Types: types}
	if b, ok := arenaPool.Get().(*[]uint64); ok {
		e.box, e.arena = b, *b
	}
	return e
}

// Frame carves n value slots from the shared arena, zeroed. Release with
// PopFrame in LIFO order. It is inlined into every guest call, so it stays
// within the compiler's inlining budget.
func (e *Env) Frame(n int) []uint64 {
	if e.top+n > len(e.arena) {
		grow := len(e.arena)*2 + n + 4096
		na := make([]uint64, grow)
		copy(na, e.arena[:e.top])
		e.arena = na
	}
	f := e.arena[e.top : e.top+n : e.top+n]
	for i := range f {
		f[i] = 0
	}
	e.top += n
	return f
}

// Release returns the frame arena to the pool. No guest code may run on
// the Env afterwards; a later Frame would take a new arena.
func (e *Env) Release() {
	if e.arena == nil {
		return
	}
	if e.box == nil {
		e.box = new([]uint64)
	}
	*e.box = e.arena
	arenaPool.Put(e.box)
	e.arena, e.box, e.top = nil, nil, 0
}

// PopFrame releases the most recent n slots.
func (e *Env) PopFrame(n int) { e.top -= n }

// Reset discards all frames and resets the call depth. The engine calls it
// after recovering from a trap, when unwinding skipped the usual PopFrame
// bookkeeping.
func (e *Env) Reset() {
	e.top = 0
	e.Depth = 0
}

// SetFuel arms fuel metering with a budget of n units (n <= 0 disables
// metering) and clears any pending interrupt. One unit is charged per
// function entry and per taken loop back-edge.
func (e *Env) SetFuel(n int64) {
	e.Metered = n > 0
	e.fuel = n
	e.interrupted.Store(false)
}

// FuelLeft returns the remaining budget (0 when exhausted, -1 when
// unmetered).
func (e *Env) FuelLeft() int64 {
	if !e.Metered {
		return -1
	}
	if e.fuel > 0 {
		return e.fuel
	}
	return 0
}

// Interrupt stops a metered instance at its next fuel check. It is safe to
// call from another goroutine while guest code runs; the victim traps with
// ErrInterrupted. Unmetered instances ignore it.
func (e *Env) Interrupt() { e.interrupted.Store(true) }

// UseFuel consumes n units when metering is enabled, trapping with
// ErrInterrupted or ErrFuelExhausted. Callers on hot paths should gate on
// e.Metered before calling.
func (e *Env) UseFuel(n int64) {
	if !e.Metered {
		return
	}
	if e.interrupted.Load() {
		panic(&TrapError{Msg: "execution interrupted", Cause: ErrInterrupted})
	}
	if e.fuel -= n; e.fuel < 0 {
		panic(&TrapError{Msg: "fuel exhausted", Cause: ErrFuelExhausted})
	}
}

// Enter increments the call depth, trapping on exhaustion, and charges one
// unit of fuel when metered.
func (e *Env) Enter() {
	e.Depth++
	if e.Depth > MaxCallDepth {
		Trap("call stack exhausted")
	}
	if e.Metered {
		e.UseFuel(1)
	}
}

// Exit decrements the call depth.
func (e *Env) Exit() { e.Depth-- }

// CheckAddr validates that an access of size bytes at the effective address
// ea — a 32-bit base plus a 32-bit offset, so up to 2³³ — stays within the
// 32-bit address space, and returns ea as a 32-bit address. It is the run
// loop's slow path; the trap carries the address truncated to 32 bits.
func CheckAddr(ea uint64, size uint32) uint32 {
	if ea+uint64(size) > 1<<32 {
		panic(&wmem.Trap{Addr: uint32(ea), Size: size, Msg: "out-of-bounds memory access"})
	}
	return uint32(ea)
}
