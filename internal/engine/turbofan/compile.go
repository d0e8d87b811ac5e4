package turbofan

import (
	"fmt"

	"wasmdb/internal/wasm"
)

// Code is a compiled function body: register instructions for the machine in
// run.go, from either compiler.
type Code struct {
	Name     string
	NParams  int
	NResults int
	NLocals  int
	MaxStack int
	ins      []tin
	tables   [][]uint32 // br_table jump tables (pcs)
}

// CompileBaseline is the baseline compiler — the engine's tier 1, what V8
// calls Liftoff: the single-pass emitter of emit.go and nothing else.
func CompileBaseline(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	buf := emitBufs.Get().(*emitBuf)
	defer emitBufs.Put(buf)
	c, err := emitFunc(m, fn, buf)
	if err != nil {
		return nil, fmt.Errorf("liftoff: %s: %w", m.FuncLabel(fn), err)
	}
	c.ins = append(make([]tin, 0, len(c.ins)), c.ins...)
	return c, nil
}

// Compile is the optimizing compiler with the default number of optimization
// rounds.
func Compile(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	return CompileRounds(m, fn, DefaultOptRounds)
}

// DefaultOptRounds is the optimizing tier's number of optimization rounds.
// One round is all the code needs; larger values model the compile cost of a
// heavier (LLVM-grade) optimizing compiler, the HyPer-like baseline's.
const DefaultOptRounds = 1

// CompileRounds is the optimizing compiler with an explicit optimization
// budget: the baseline emitter's output, split into basic blocks,
// value-numbered with its remaining instruction forms selected (vn.go),
// cleaned by liveness-based dead-code elimination with its peepholes
// (opt.go, isel.go) and laid out again with its loops rotated. Every round
// runs the dead-code elimination; the last one runs value numbering, once,
// in front of it. The blocks work in the emitter's buffer, and linearize
// writes the code anew, so the emitted stream is never copied out.
func CompileRounds(m *wasm.Module, fn *wasm.Func, rounds int) (*Code, error) {
	buf := emitBufs.Get().(*emitBuf)
	defer emitBufs.Put(buf)
	c, err := emitFunc(m, fn, buf)
	if err != nil {
		return nil, fmt.Errorf("turbofan: %s: %w", m.FuncLabel(fn), err)
	}
	g := buildBlocks(c.ins, c.tables)
	o := &optimizer{g: g, nRegs: c.NLocals + c.MaxStack, code: c}
	for r := 1; r < rounds; r++ {
		o.deadCodeElim(false)
	}
	o.numberValues()
	o.deadCodeElim(true)
	linearize(c, g)
	return c, nil
}
