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
	// Passes reports how many optimization passes ran (0 for baseline code).
	Passes int
}

// CompileBaseline is the baseline compiler — the engine's tier 1, what V8
// calls Liftoff: the single-pass emitter of emit.go and nothing else.
func CompileBaseline(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	c, err := emitFunc(m, fn)
	if err != nil {
		return nil, fmt.Errorf("liftoff: %s: %w", fn.Name, err)
	}
	return c, nil
}

// Compile is the optimizing compiler with the default number of optimization
// rounds.
func Compile(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	return CompileRounds(m, fn, DefaultOptRounds)
}

// DefaultOptRounds is the standard number of optimization rounds — the
// TurboFan-grade setting. Higher values model heavier (LLVM-grade)
// optimizing compilers: each round re-runs folding, fusion, jump threading,
// and liveness-based DCE over the whole block graph, so compile time grows
// accordingly while code quality saturates.
const DefaultOptRounds = 2

// CompileRounds is the optimizing compiler with an explicit optimization
// budget: the baseline emitter's output, split into basic blocks, optimized,
// given its final instruction forms and laid out again.
func CompileRounds(m *wasm.Module, fn *wasm.Func, rounds int) (*Code, error) {
	c, err := emitFunc(m, fn)
	if err != nil {
		return nil, fmt.Errorf("turbofan: %s: %w", fn.Name, err)
	}
	g := buildBlocks(c.ins, c.tables)
	opt := &optimizer{g: g, nRegs: c.NLocals + c.MaxStack, code: c, rounds: rounds}
	opt.run()
	c.Passes = opt.passes
	linearize(c, g)
	return c, nil
}
