package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// Tier-differential testing: random valid functions, biased towards the
// patterns the optimizing compiler's back end rewrites and towards the shapes
// the shared emitter's abstract stack has to get right, compiled by the
// baseline compiler (TierLiftoff: the emitter alone) and by the optimizing
// one (TierTurbofan) and run on the one machine under the same fuel budget.
// The two must agree on the result or the trap message, on every byte of
// memory, on the set of committed pages, on the globals and on the fuel left
// — the baseline-vs-optimizing equivalence the architecture rests on. What
// both compilers could get wrong together is checked against values computed
// in Go: emitdiff_test.go and opcodes_test.go.

const diffPages = 4 // address space of the generated programs

// Constants the generators draw from: identities, powers of two (strength
// reduction), the extremes, values that do not fit 32 bits, and indices that
// scale onto the last bytes of the last page or wrap 2³².
var (
	diffConst32 = []int32{0, 1, -1, 2, 3, 4, 8, 31, 32, 33, 64, 100, math.MinInt32, math.MaxInt32,
		0x40000000, 0x40000001, 0x3FFFFFFF, 65535, 65536,
		diffPages*wmem.PageSize - 1, diffPages*wmem.PageSize - 8, (diffPages * wmem.PageSize / 8) - 1, diffPages * wmem.PageSize / 4}
	diffConst64 = []int64{0, 1, -1, 2, 8, 63, 64, 100, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1,
		math.MinInt32 - 1, 1 << 32, 1<<32 + 1, -(1 << 32), math.MinInt64, math.MaxInt64,
		0x0123456789ABCDEF, 1099511628211}
)

// Bounds the range tests draw from: the limits of each width, the values next
// to them, and a few in between.
var (
	rangeConst32 = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, 7, 100, math.MaxInt32 - 1, math.MaxInt32}
	rangeConst64 = []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32, -1, 0, 1, 7, 100, math.MaxInt32,
		math.MaxInt64 - 1, math.MaxInt64}
)

var (
	diffBin32 = []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32DivS, wasm.OpI32DivU,
		wasm.OpI32RemS, wasm.OpI32RemU, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor, wasm.OpI32Shl,
		wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr}
	diffBin64 = []wasm.Opcode{wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64DivS, wasm.OpI64DivU,
		wasm.OpI64RemS, wasm.OpI64RemU, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor, wasm.OpI64Shl,
		wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr}
	diffCmp32 = []wasm.Opcode{wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
		wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU}
	diffCmp64 = []wasm.Opcode{wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS,
		wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU}
	diffLoad32 = []wasm.Opcode{wasm.OpI32Load, wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI32Load16S, wasm.OpI32Load16U}
	diffLoad64 = []wasm.Opcode{wasm.OpI64Load, wasm.OpI64Load8S, wasm.OpI64Load8U, wasm.OpI64Load16S,
		wasm.OpI64Load16U, wasm.OpI64Load32S, wasm.OpI64Load32U}
	diffStore32 = []wasm.Opcode{wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16}
	diffStore64 = []wasm.Opcode{wasm.OpI64Store, wasm.OpI64Store8, wasm.OpI64Store16, wasm.OpI64Store32}
)

// progGen builds one random program from a byte string, so a fuzzer mutating
// the bytes mutates the program. An exhausted string reads as zeros, which
// select the simplest alternative everywhere: generation always terminates.
type progGen struct {
	data []byte
	pos  int

	f      *wasm.FuncBuilder
	helper uint32
	hType  uint32 // the helper's type, for calling it through table slot 0
	v32    []wasm.Local
	v64    []wasm.Local
	// slot holds an address inside the memory; the read-modify-write
	// statements update the word it points to.
	slot wasm.Local
	// risky programs leave one address in four unmasked and use offsets up
	// to the end of memory, so they mostly end in a trap; the others keep
	// every access in bounds and run to completion.
	risky bool
	// ctl is the stack of open control constructs (true = loop), for the
	// label depths of continue and break.
	ctl   []bool
	stmts int // statements left to emit
}

func (g *progGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func (g *progGen) pick(n int) int { return g.next() % n }

// bin picks a binary operation; the trapping ones (div and rem sit at
// positions 3 to 6) only one time in eight, or most programs would end in a
// division by zero.
func (g *progGen) bin(ops []wasm.Opcode) wasm.Opcode {
	op := g.pick(len(ops))
	if op >= 3 && op <= 6 && g.pick(8) != 0 {
		op += 4
	}
	return ops[op]
}

func (g *progGen) local32() wasm.Local { return g.v32[g.pick(len(g.v32))] }
func (g *progGen) local64() wasm.Local { return g.v64[g.pick(len(g.v64))] }

// expr32 pushes one i32 value.
func (g *progGen) expr32(depth int) {
	f := g.f
	if depth <= 0 {
		if g.pick(2) == 0 {
			f.LocalGet(g.local32())
		} else {
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
		}
		return
	}
	switch g.pick(9) {
	case 0:
		f.LocalGet(g.local32())
	case 1: // a constant on either side of an operation
		op := g.bin(diffBin32)
		if g.pick(2) == 0 {
			g.expr32(depth - 1)
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
		} else {
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
			g.expr32(depth - 1)
		}
		f.Op(op)
	case 2:
		g.expr32(depth - 1)
		g.expr32(depth - 1)
		f.Op(g.bin(diffBin32))
	case 3: // a constant on either side of a comparison
		op := diffCmp32[g.pick(len(diffCmp32))]
		if g.pick(2) == 0 {
			g.expr32(depth - 1)
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
		} else {
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
			g.expr32(depth - 1)
		}
		f.Op(op)
	case 4:
		op := diffCmp64[g.pick(len(diffCmp64))]
		if g.pick(2) == 0 {
			g.expr64(depth - 1)
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
		} else {
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
			g.expr64(depth - 1)
		}
		f.Op(op)
	case 5:
		g.address(depth - 1)
		f.Emit(diffLoad32[g.pick(len(diffLoad32))], g.offset(), 0)
	case 6:
		g.expr64(depth - 1)
		f.Op(wasm.OpI32WrapI64)
	case 7:
		g.expr32(depth - 1)
		g.expr32(depth - 1)
		g.expr32(depth - 1)
		f.Select()
	case 8:
		g.rangeTest(depth - 1)
	}
}

// rangeTest pushes a conjunction of two signed comparisons of one value with
// constants at or next to the limits of its width — mostly a lower and an
// upper bound, strict or not, the empty ranges among them — sometimes at the
// end of an `and` chain behind another value. The value's expression is
// generated twice from the same bytes, so both comparisons read one value.
func (g *progGen) rangeTest(depth int) {
	f := g.f
	wide := g.pick(2) == 0
	chain := g.pick(3) == 0
	if chain {
		g.expr32(depth)
	}
	lower := []wasm.Opcode{wasm.OpI32GeS, wasm.OpI32GtS}
	upper := []wasm.Opcode{wasm.OpI32LeS, wasm.OpI32LtS}
	if wide {
		lower = []wasm.Opcode{wasm.OpI64GeS, wasm.OpI64GtS}
		upper = []wasm.Opcode{wasm.OpI64LeS, wasm.OpI64LtS}
	}
	ops := [2]wasm.Opcode{lower[g.pick(2)], upper[g.pick(2)]}
	switch g.pick(4) {
	case 0:
		ops[0], ops[1] = ops[1], ops[0]
	case 1:
		ops[1] = lower[g.pick(2)] // two lower bounds: no range
	}
	operand := func() {
		if wide {
			g.expr64(depth)
		} else {
			g.expr32(depth)
		}
	}
	x := g.pos
	for i, op := range ops {
		if i == 0 {
			operand()
		} else {
			next := g.pos
			g.pos = x
			operand()
			g.pos = next
		}
		if wide {
			f.I64Const(rangeConst64[g.pick(len(rangeConst64))])
		} else {
			f.I32Const(rangeConst32[g.pick(len(rangeConst32))])
		}
		f.Op(op)
		if chain || i == 1 {
			f.I32And()
		}
	}
}

// expr64 pushes one i64 value.
func (g *progGen) expr64(depth int) {
	f := g.f
	if depth <= 0 {
		if g.pick(2) == 0 {
			f.LocalGet(g.local64())
		} else {
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
		}
		return
	}
	switch g.pick(8) {
	case 0:
		f.LocalGet(g.local64())
	case 1:
		op := g.bin(diffBin64)
		if g.pick(2) == 0 {
			g.expr64(depth - 1)
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
		} else {
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
			g.expr64(depth - 1)
		}
		f.Op(op)
	case 2:
		g.expr64(depth - 1)
		g.expr64(depth - 1)
		f.Op(g.bin(diffBin64))
	case 3:
		g.address(depth - 1)
		f.Emit(diffLoad64[g.pick(len(diffLoad64))], g.offset(), 0)
	case 4:
		g.expr32(depth - 1)
		f.Op([]wasm.Opcode{wasm.OpI64ExtendI32S, wasm.OpI64ExtendI32U}[g.pick(2)])
	case 5:
		g.expr64(depth - 1)
		f.Call(g.helper)
	case 6:
		f.GlobalGet(0)
	case 7:
		g.expr64(depth - 1)
		g.expr64(depth - 1)
		g.expr32(depth - 1)
		f.Select()
	}
}

// address pushes an i32 address in one of the shapes the addressing modes
// absorb — an index shifted or multiplied to the element size, a sum of two
// registers — or a plain expression. Most addresses are masked into the
// memory; the rest may scale past it, onto its last bytes, or wrap 2³².
func (g *progGen) address(depth int) {
	f := g.f
	index := func() {
		g.expr32(depth)
		if !g.risky || g.pick(4) != 0 {
			f.I32Const(diffPages*wmem.PageSize/16 - 1)
			f.I32And()
		}
	}
	switch g.pick(4) {
	case 0:
		index()
		f.I32Const(int32(g.pick(4)))
		f.Op(wasm.OpI32Shl)
	case 1:
		index()
		f.I32Const(1 << g.pick(4))
		f.I32Mul()
	case 2:
		index()
		index()
		f.I32Add()
	case 3:
		index()
	}
}

func (g *progGen) offset() uint64 {
	offsets := []uint64{0, 0, 1, 8, 56, 4096, wmem.PageSize, diffPages*wmem.PageSize - 8, diffPages*wmem.PageSize - 1}
	if !g.risky {
		offsets = offsets[:7]
	}
	return offsets[g.pick(len(offsets))]
}

// stmt emits one stack-neutral statement.
func (g *progGen) stmt(depth int) {
	f := g.f
	g.stmts--
	switch g.pick(19) {
	case 0:
		g.expr32(2)
		f.LocalSet(g.local32())
	case 1:
		g.expr64(2)
		f.LocalSet(g.local64())
	case 2: // local.tee whose stack copy is consumed after the move
		g.expr32(2)
		f.LocalTee(g.local32())
		g.expr32(1)
		f.Op(g.bin(diffBin32))
		f.LocalSet(g.local32())
	case 3:
		g.expr64(2)
		f.LocalTee(g.local64())
		g.expr64(1)
		f.Op(diffCmp64[g.pick(len(diffCmp64))])
		f.LocalSet(g.local32())
	case 4:
		g.address(1)
		g.expr32(1)
		f.Emit(diffStore32[g.pick(len(diffStore32))], g.offset(), 0)
	case 5:
		g.address(1)
		g.expr64(1)
		f.Emit(diffStore64[g.pick(len(diffStore64))], g.offset(), 0)
	case 6: // read-modify-write of one slot
		a, off := g.slot, g.offset()
		if g.risky && g.pick(4) == 0 {
			a = g.local32()
		}
		f.LocalGet(a)
		f.LocalGet(a)
		f.Emit(wasm.OpI64Load, off, 0)
		switch g.pick(4) {
		case 0, 1:
			g.expr64(1)
		case 2:
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
		case 3: // the addend reads the loaded value back: the load must stay ahead of it
			l := g.local64()
			f.LocalTee(l)
			f.LocalGet(l)
			g.expr64(1)
			f.Op(diffBin64[g.pick(3)])
		}
		f.I64Add()
		if g.pick(8) == 0 {
			off += 8 // not an update in place: must not fuse
		}
		f.Emit(wasm.OpI64Store, off, 0)
	case 7:
		f.GlobalGet(0)
		g.expr64(1)
		f.Op(diffBin64[g.pick(3)])
		f.GlobalSet(0)
	case 8:
		if depth > 0 {
			g.expr32(2)
			f.If(wasm.BlockVoid)
			g.ctl = append(g.ctl, false)
			g.block(depth - 1)
			if g.pick(2) == 0 {
				f.Else()
				g.block(depth - 1)
			}
			g.ctl = g.ctl[:len(g.ctl)-1]
			f.End()
		}
	case 9:
		if depth > 0 {
			g.loop(depth - 1)
		}
	case 10: // continue or break out of the innermost loop
		for i := len(g.ctl) - 1; i >= 0; i-- {
			if g.ctl[i] {
				g.expr32(1)
				f.BrIf(uint32(len(g.ctl) - 1 - i + g.pick(2)))
				break
			}
		}
	case 11: // an if/else that yields a value
		g.expr32(1)
		f.If(wasm.BlockOf(wasm.I64))
		g.expr64(1)
		f.Else()
		g.expr64(1)
		f.End()
		f.LocalSet(g.local64())
	case 12: // a local read, then overwritten while the read is still on the stack
		l := g.local32()
		f.LocalGet(l)
		g.expr32(1)
		if g.pick(2) == 0 {
			f.LocalSet(l)
			f.LocalGet(l)
		} else {
			f.LocalTee(l)
		}
		f.Op(g.bin(diffBin32))
		f.LocalSet(g.local32())
	case 13: // a local and a constant on the stack across a whole statement
		l := g.local64()
		f.LocalGet(l)
		f.I64Const(diffConst64[g.pick(len(diffConst64))])
		if depth > 0 {
			g.stmt(depth - 1)
		} else {
			g.expr64(1)
			f.LocalSet(l)
		}
		f.Op(diffBin64[g.pick(3)])
		f.LocalSet(g.local64())
	case 14: // select over locals and constants, the condition one too
		g.expr64(0)
		g.expr64(0)
		g.expr32(g.pick(2))
		f.Select()
		f.LocalSet(g.local64())
	case 15: // a branch that carries a value over one it discards
		f.Block(wasm.BlockOf(wasm.I64))
		g.ctl = append(g.ctl, false)
		g.expr64(0)
		g.expr64(0)
		g.expr32(1)
		f.BrIf(0)
		f.Op(diffBin64[g.pick(3)])
		g.ctl = g.ctl[:len(g.ctl)-1]
		f.End()
		f.LocalSet(g.local64())
	case 16: // br_table with a local and a constant beneath it
		l := g.local64()
		f.LocalGet(l)
		f.I64Const(diffConst64[g.pick(len(diffConst64))])
		f.Block(wasm.BlockVoid)
		f.Block(wasm.BlockVoid)
		g.expr32(0)
		f.BrTable([]uint32{0, 1}, uint32(g.pick(2)))
		f.End()
		g.expr64(1)
		f.LocalSet(l)
		f.End()
		f.Op(diffBin64[g.pick(3)])
		f.LocalSet(g.local64())
	case 17: // an indirect call, or an early return, below a value
		f.LocalGet(g.local64())
		g.expr64(0)
		if g.pick(4) != 0 {
			f.I32Const(0)
			f.Emit(wasm.OpCallIndirect, uint64(g.hType), 0)
		} else {
			g.expr32(1)
			f.If(wasm.BlockVoid)
			f.LocalGet(g.local64())
			f.Return()
			f.End()
		}
		f.Op(diffBin64[g.pick(3)])
		f.LocalSet(g.local64())
	case 18:
		g.reevaluate()
	}
}

// reevaluate evaluates a load or an expression, then possibly something that
// changes what it reads, then the same load or expression again — generated
// twice from the same bytes — and combines the two values. In between comes
// nothing, a store to the load's address, to an overlapping or to a disjoint
// one, a call, an indirect call, a global.set, a memory.grow, an update in
// place of the slot or a local.set.
func (g *progGen) reevaluate() {
	f := g.f
	load, off := g.pick(3) != 0, g.offset()
	op := diffLoad64[g.pick(len(diffLoad64))]
	x := g.pos
	value := func() {
		if load {
			g.address(1)
			f.Emit(op, off, 0)
		} else {
			g.expr64(2)
		}
	}
	replay := func(fn func()) {
		next := g.pos
		g.pos = x
		fn()
		g.pos = next
	}
	value()
	switch g.pick(9) {
	case 0:
	case 1: // a store at the load's address plus 0, 1, 3 or 8
		if load {
			replay(func() { g.address(1) })
			g.expr64(1)
			f.Emit(diffStore64[g.pick(len(diffStore64))], off+[]uint64{0, 1, 3, 8}[g.pick(4)], 0)
		}
	case 2:
		l := g.local64()
		f.LocalGet(l)
		f.Call(g.helper)
		f.LocalSet(l)
	case 3:
		l := g.local64()
		f.LocalGet(l)
		f.I32Const(0)
		f.Emit(wasm.OpCallIndirect, uint64(g.hType), 0)
		f.LocalSet(l)
	case 4:
		g.expr64(1)
		f.GlobalSet(0)
	case 5: // fails: the memory is at its maximum
		f.I32Const(int32(g.pick(2)))
		f.MemoryGrow()
		f.LocalSet(g.local32())
	case 6:
		f.LocalGet(g.slot)
		f.LocalGet(g.slot)
		f.I64Load(0)
		g.expr64(0)
		f.I64Add()
		f.I64Store(0)
	case 7:
		g.expr64(1)
		f.LocalSet(g.local64())
	case 8:
		g.expr32(1)
		f.LocalSet(g.local32())
	}
	replay(value)
	f.Op(diffBin64[g.pick(3)])
	f.LocalSet(g.local64())
}

func (g *progGen) block(depth int) {
	for n := 1 + g.pick(3); n > 0 && g.stmts > 0; n-- {
		g.stmt(depth)
	}
}

// loop emits a counted loop in the shape the query compiler generates —
// header test at the top, unconditional back-edge at the bottom — with a
// header of zero to five further instructions (one more than rotation
// copies), optionally a call among them, optionally an `if` right in front
// of it, whose skip branch then targets the loop header from outside, and
// optionally an `if` as its first statement, whose skip branch makes the
// header end in a branch that stays inside the loop.
// The counter advances before the body, so a `continue` still terminates.
func (g *progGen) loop(depth int) {
	f := g.f
	ctr := f.AddLocal(wasm.I32)
	if g.pick(3) == 0 {
		g.expr32(1)
		f.If(wasm.BlockVoid)
		g.ctl = append(g.ctl, false)
		g.stmt(0)
		g.ctl = g.ctl[:len(g.ctl)-1]
		f.End()
	}
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	g.ctl = append(g.ctl, false, true)
	if g.pick(6) == 0 {
		// The header's branch skips forward inside the loop instead of
		// leaving it.
		g.expr32(0)
		f.If(wasm.BlockVoid)
		g.ctl = append(g.ctl, false)
		g.stmt(0)
		g.ctl = g.ctl[:len(g.ctl)-1]
		f.End()
	}
	for n := g.pick(6); n > 0; n-- {
		switch g.pick(4) {
		case 0:
			l := g.local64()
			f.LocalGet(l)
			f.Call(g.helper)
			f.LocalSet(l)
		case 1:
			l := g.local32()
			f.LocalGet(l)
			f.I32Const(diffConst32[g.pick(len(diffConst32))])
			f.Op(diffBin32[g.pick(3)])
			f.LocalSet(l)
		case 2:
			l := g.local64()
			f.LocalGet(l)
			f.I64Const(diffConst64[g.pick(len(diffConst64))])
			f.Op(diffBin64[g.pick(3)])
			f.LocalSet(l)
		case 3:
			g.address(0)
			f.Emit(wasm.OpI64Load, g.offset(), 0)
			f.LocalSet(g.local64())
		}
	}
	f.LocalGet(ctr)
	if g.pick(2) == 0 {
		f.I32Const(int32(g.pick(6)))
	} else {
		f.LocalGet(g.local32())
		f.I32Const(7)
		f.I32And()
	}
	f.Op([]wasm.Opcode{wasm.OpI32GeU, wasm.OpI32GeS, wasm.OpI32GtU}[g.pick(3)])
	f.BrIf(1)
	f.LocalGet(ctr)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(ctr)
	g.block(depth)
	f.Br(0)
	g.ctl = g.ctl[:len(g.ctl)-2]
	f.End()
	f.End()
}

// diffProgram builds the module for one byte string: a helper with side
// effects on memory and a global, and the generated function p(i64, i64) i64.
func diffProgram(data []byte) []byte {
	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", diffPages, diffPages)
	b.AddGlobal(wasm.I64, true, 7)
	pattern := make([]byte, 4096)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	b.AddData(0, pattern)

	h := b.NewFunc("helper", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	h.GlobalGet(0)
	h.LocalGet(0)
	h.I64Add()
	h.GlobalSet(0)
	h.LocalGet(0)
	h.Op(wasm.OpI32WrapI64)
	h.I32Const(0xFF8)
	h.I32And()
	h.LocalGet(0)
	h.I64Store(8192)
	h.LocalGet(0)
	h.I64Const(31)
	h.I64Mul()
	h.I64Const(7)
	h.I64Add()

	f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	g := &progGen{data: data, f: f, helper: h.Index, hType: b.AddType(h.Type()), stmts: 24}
	g.v64 = []wasm.Local{f.Param(0), f.Param(1), f.AddLocal(wasm.I64), f.AddLocal(wasm.I64)}
	for i := 0; i < 4; i++ {
		g.v32 = append(g.v32, f.AddLocal(wasm.I32))
	}
	g.risky = g.pick(4) == 0
	g.slot = f.AddLocal(wasm.I32)
	f.LocalGet(g.v64[0])
	f.Op(wasm.OpI32WrapI64)
	f.I32Const(0xFFF8)
	f.I32And()
	f.LocalSet(g.slot)
	// Seed the i32 locals from the parameters.
	for i, l := range g.v32 {
		f.LocalGet(g.v64[i%2])
		f.I64Const(int64(8 * i))
		f.Op(wasm.OpI64ShrU)
		f.Op(wasm.OpI32WrapI64)
		f.LocalSet(l)
	}
	for g.stmts > 0 {
		g.stmt(2)
	}
	// Fold every local into the result.
	f.LocalGet(g.v64[0])
	for _, l := range g.v64[1:] {
		f.LocalGet(l)
		f.Op(wasm.OpI64Xor)
	}
	for _, l := range g.v32 {
		f.LocalGet(l)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Const(1099511628211)
		f.I64Mul()
		f.Op(wasm.OpI64Xor)
	}
	b.Export("p", wasm.ExternFunc, f.Index)
	m := b.Module()
	m.HasTable, m.TableMin = true, 1
	m.Elems = []wasm.ElemSegment{{Offset: 0, Funcs: []uint32{h.Index}}}
	return wasm.Encode(m)
}

// tierOutcome is everything observable about one run.
type tierOutcome struct {
	res       []uint64
	err       string
	mem       []byte
	committed []int
	global    uint64
	fuelLeft  int64
}

func runTier(t testing.TB, bin []byte, tier Tier, fuel int64, args ...uint64) tierOutcome {
	t.Helper()
	m, err := New(Config{Tier: tier}).Compile(bin)
	if err != nil {
		t.Fatalf("%v compile: %v", tier, err)
	}
	mem := wmem.New(diffPages, diffPages)
	inst, err := m.Instantiate(Imports{Memory: mem})
	if err != nil {
		t.Fatalf("%v instantiate: %v", tier, err)
	}
	inst.SetFuel(fuel)
	var out tierOutcome
	res, err := inst.Call("p", args...)
	if err != nil {
		out.err = err.Error()
	}
	out.res = res
	out.fuelLeft = inst.FuelLeft()
	for p, pg := range mem.PageSlice() {
		if pg != nil {
			out.committed = append(out.committed, p)
		}
	}
	out.mem = mem.ReadBytes(0, diffPages*wmem.PageSize)
	if len(m.wmod.Globals) > 0 {
		out.global = inst.Global(0)
	}
	return out
}

// diffTiers runs bin on both tiers and reports the first disagreement.
func diffTiers(t testing.TB, bin []byte, fuel int64, args ...uint64) (agree tierOutcome, diff string) {
	t.Helper()
	lo := runTier(t, bin, TierLiftoff, fuel, args...)
	tf := runTier(t, bin, TierTurbofan, fuel, args...)
	switch {
	case lo.err != tf.err:
		return lo, fmt.Sprintf("errors differ: liftoff %q, turbofan %q", lo.err, tf.err)
	case !slices.Equal(lo.res, tf.res):
		return lo, fmt.Sprintf("results differ: liftoff %#x, turbofan %#x", lo.res, tf.res)
	case lo.fuelLeft != tf.fuelLeft:
		return lo, fmt.Sprintf("fuel left differs: liftoff %d, turbofan %d", lo.fuelLeft, tf.fuelLeft)
	case lo.global != tf.global:
		return lo, fmt.Sprintf("global differs: liftoff %#x, turbofan %#x", lo.global, tf.global)
	case !slices.Equal(lo.committed, tf.committed):
		return lo, fmt.Sprintf("committed pages differ: liftoff %v, turbofan %v", lo.committed, tf.committed)
	case !bytes.Equal(lo.mem, tf.mem):
		for a := range lo.mem {
			if lo.mem[a] != tf.mem[a] {
				return lo, fmt.Sprintf("memory differs at %#x: liftoff %#x, turbofan %#x", a, lo.mem[a], tf.mem[a])
			}
		}
	}
	return lo, ""
}

// diffSeed expands a seed into the byte string of one random program.
func diffSeed(seed int64) []byte {
	data := make([]byte, 600)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// diffInputs derives the arguments and the fuel budget from the byte string:
// mostly ample fuel, sometimes so little that the run ends in exhaustion —
// which must then strike both tiers at the same point.
func diffInputs(data []byte) (fuel int64, args []uint64) {
	var h uint64 = 14695981039346656037
	for _, c := range data {
		h = (h ^ uint64(c)) * 1099511628211
	}
	fuel = 1 << 20
	if h%5 == 0 {
		fuel = int64(1 + (h>>8)%40)
	}
	return fuel, []uint64{h, h>>17 ^ h<<13}
}

func checkDiffProgram(t testing.TB, data []byte) (trapped bool) {
	t.Helper()
	bin := diffProgram(data)
	fuel, args := diffInputs(data)
	out, diff := diffTiers(t, bin, fuel, args...)
	if diff != "" {
		m, _ := wasm.Decode(bin)
		t.Fatalf("%s\nfuel %d args %#x\n%s", diff, fuel, args, wasm.Print(m))
	}
	return out.err != ""
}

// TestTierDifferential runs the generator over a fixed set of seeds.
func TestTierDifferential(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 100
	}
	trapped := 0
	for seed := int64(0); seed < int64(n); seed++ {
		if checkDiffProgram(t, diffSeed(seed)) {
			trapped++
		}
	}
	if trapped == 0 || trapped == n {
		t.Errorf("%d of %d programs trapped; the corpus should mix traps and completions", trapped, n)
	}
}

// FuzzTierDifferential lets the fuzzer mutate the program bytes, seeded from
// the deterministic corpus.
func FuzzTierDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(diffSeed(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkDiffProgram(t, data)
	})
}

// TestFuelExhaustionPointDifferential sweeps the fuel budget of generated
// programs from one unit up to what they need: wherever the budget runs out,
// both tiers must have done exactly the same work by then — the same stores,
// the same calls. This is what pins the fuel charge of a rotated loop to the
// place the back-edge jump had it.
func TestFuelExhaustionPointDifferential(t *testing.T) {
	const ample = 1 << 20
	swept := 0
	for seed := int64(0); seed < 60; seed++ {
		data := diffSeed(seed)
		bin := diffProgram(data)
		_, args := diffInputs(data)
		full, diff := diffTiers(t, bin, ample, args...)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		need := ample - full.fuelLeft
		if need > 48 {
			need = 48
		}
		for fuel := int64(1); fuel <= need; fuel++ {
			if _, diff := diffTiers(t, bin, fuel, args...); diff != "" {
				m, _ := wasm.Decode(bin)
				t.Fatalf("seed %d, fuel %d: %s\n%s", seed, fuel, diff, wasm.Print(m))
			}
			swept++
		}
	}
	if swept < 200 {
		t.Errorf("only %d budgets swept; the corpus lost its loops", swept)
	}
}

// tierPair is a liftoff and a turbofan instance of one module.
type tierPair struct {
	t      *testing.T
	lo, tf *Instance
}

func newTierPair(t *testing.T, bin []byte, pages uint32) tierPair {
	t.Helper()
	p := tierPair{t: t}
	for _, slot := range []struct {
		tier Tier
		inst **Instance
	}{{TierLiftoff, &p.lo}, {TierTurbofan, &p.tf}} {
		m, err := New(Config{Tier: slot.tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", slot.tier, err)
		}
		var imp Imports
		if pages > 0 {
			imp.Memory = wmem.New(pages, pages)
		}
		if *slot.inst, err = m.Instantiate(imp); err != nil {
			t.Fatalf("%v instantiate: %v", slot.tier, err)
		}
	}
	return p
}

// call invokes an exported function with the same arguments on both
// instances and requires the same result or the same trap message.
func (p tierPair) call(name, what string, args ...uint64) {
	p.t.Helper()
	r1, e1 := p.lo.Call(name, args...)
	r2, e2 := p.tf.Call(name, args...)
	if fmt.Sprint(e1) != fmt.Sprint(e2) || !slices.Equal(r1, r2) {
		p.t.Fatalf("%s with %#x: liftoff %#x %v, turbofan %#x %v", what, args, r1, e1, r2, e2)
	}
}

// TestImmediateFormsDifferential covers every integer operation and
// comparison with a constant on the right and on the left — the immediate
// forms, their mirrors, rsub, the multiply strength reduction — every
// comparison once more feeding a branch, and a select with a constant arm,
// over constants and arguments that include the extremes and values beyond
// 32 bits.
func TestImmediateFormsDifferential(t *testing.T) {
	type family struct {
		ty        wasm.ValType
		bins      []wasm.Opcode
		cmps      []wasm.Opcode
		consts    []uint64
		emitConst func(f *wasm.FuncBuilder, c uint64)
	}
	var c32, c64 []uint64
	for _, c := range []int32{0, 1, -1, 2, 8, 31, 32, 100, math.MinInt32, math.MaxInt32} {
		c32 = append(c32, uint64(uint32(c)))
	}
	for _, c := range []int64{0, 1, -1, 2, 64, 100, math.MinInt32, math.MaxInt32 + 1, 1<<32 + 1, math.MinInt64, math.MaxInt64} {
		c64 = append(c64, uint64(c))
	}
	families := []family{
		{wasm.I32, diffBin32, diffCmp32, c32, func(f *wasm.FuncBuilder, c uint64) { f.I32Const(int32(uint32(c))) }},
		{wasm.I64, diffBin64, diffCmp64, c64, func(f *wasm.FuncBuilder, c uint64) { f.I64Const(int64(c)) }},
	}

	b := wasm.NewModuleBuilder()
	type fn struct {
		name, what string
		args       []uint64
	}
	var fns []fn
	add := func(fam family, op wasm.Opcode, c uint64, left, branch bool) {
		res := fam.ty
		if slices.Contains(fam.cmps, op) {
			res = wasm.I32
		}
		name := fmt.Sprintf("f%d", len(fns))
		f := b.NewFunc(name, wasm.FuncType{Params: []wasm.ValType{fam.ty}, Results: []wasm.ValType{res}})
		if left {
			fam.emitConst(f, c)
			f.LocalGet(0)
		} else {
			f.LocalGet(0)
			fam.emitConst(f, c)
		}
		f.Op(op)
		if branch {
			f.If(wasm.BlockOf(wasm.I32))
			f.I32Const(11)
			f.Else()
			f.I32Const(22)
			f.End()
		}
		b.Export(name, wasm.ExternFunc, f.Index)
		fns = append(fns, fn{name, fmt.Sprintf("%v const %#x left=%v branch=%v", op, c, left, branch), fam.consts})
	}
	// select(x, C, x odd) and select(C, x, x odd): a constant in either arm.
	addSelect := func(fam family, c uint64, constTrue bool) {
		name := fmt.Sprintf("f%d", len(fns))
		f := b.NewFunc(name, wasm.FuncType{Params: []wasm.ValType{fam.ty}, Results: []wasm.ValType{fam.ty}})
		if constTrue {
			fam.emitConst(f, c)
			f.LocalGet(0)
		} else {
			f.LocalGet(0)
			fam.emitConst(f, c)
		}
		f.LocalGet(0)
		if fam.ty == wasm.I64 {
			f.Op(wasm.OpI32WrapI64)
		}
		f.I32Const(1)
		f.I32And()
		f.Select()
		b.Export(name, wasm.ExternFunc, f.Index)
		fns = append(fns, fn{name, fmt.Sprintf("%v select const %#x true-arm=%v", fam.ty, c, constTrue), fam.consts})
	}
	for _, fam := range families {
		for _, c := range fam.consts {
			addSelect(fam, c, false)
			addSelect(fam, c, true)
			for _, left := range []bool{false, true} {
				for _, op := range fam.bins {
					add(fam, op, c, left, false)
				}
				for _, op := range fam.cmps {
					add(fam, op, c, left, false)
					add(fam, op, c, left, true)
				}
			}
		}
	}
	p := newTierPair(t, b.Bytes(), 0)
	for _, f := range fns {
		for _, x := range f.args {
			p.call(f.name, f.what, x)
		}
	}
}

// TestAddressingModesDifferential covers every load through a shifted index
// (shift 0–3, written as a shift and as a multiplication) and through a sum
// of two registers, with indices whose scaled value is in bounds, lands on
// the last bytes of the last page, lies past the end, or wraps 2³². Results,
// trap messages and the committed pages must match.
func TestAddressingModesDifferential(t *testing.T) {
	const pages = 2
	const size = pages * wmem.PageSize
	loads := append(append([]wasm.Opcode{wasm.OpF32Load, wasm.OpF64Load}, diffLoad32...), diffLoad64...)
	offsets := []uint64{0, 8, size - 8, size - 1}

	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", pages, pages)
	pattern := make([]byte, 256)
	for i := range pattern {
		pattern[i] = byte(0x80 + i*5)
	}
	b.AddData(0, pattern)
	b.AddData(size-256, pattern)
	type fn struct {
		name, what string
		indexed    bool
		shift      int
	}
	var fns []fn
	params := []wasm.ValType{wasm.I32, wasm.I32}
	for _, op := range loads {
		res, _ := op.ResultType()
		for _, off := range offsets {
			for shift := 0; shift < 4; shift++ {
				for _, mul := range []bool{false, true} {
					name := fmt.Sprintf("f%d", len(fns))
					f := b.NewFunc(name, wasm.FuncType{Params: params, Results: []wasm.ValType{res}})
					f.LocalGet(0)
					if mul {
						f.I32Const(1 << shift)
						f.I32Mul()
					} else {
						f.I32Const(int32(shift))
						f.Op(wasm.OpI32Shl)
					}
					f.Emit(op, off, 0)
					b.Export(name, wasm.ExternFunc, f.Index)
					fns = append(fns, fn{name, fmt.Sprintf("%v [i<<%d + %d] mul=%v", op, shift, off, mul), false, shift})
				}
			}
			name := fmt.Sprintf("f%d", len(fns))
			f := b.NewFunc(name, wasm.FuncType{Params: params, Results: []wasm.ValType{res}})
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Add()
			f.Emit(op, off, 0)
			b.Export(name, wasm.ExternFunc, f.Index)
			fns = append(fns, fn{name, fmt.Sprintf("%v [a + b + %d]", op, off), true, 0})
		}
	}
	p := newTierPair(t, b.Bytes(), pages)
	for _, f := range fns {
		if f.indexed {
			for _, ab := range [][2]uint32{{0, 0}, {8, 16}, {size - 8, 0}, {size - 4, 3}, {size, 0},
				{math.MaxUint32, 1}, {math.MaxUint32, 9}, {1 << 31, 1 << 31}, {1<<31 + 100, 1 << 31}} {
				p.call(f.name, f.what, uint64(ab[0]), uint64(ab[1]))
			}
			continue
		}
		last := uint32(size-1) >> f.shift
		wrap := uint32(uint64(1) << (32 - f.shift)) // scales to exactly 2³², i.e. 0
		for _, i := range []uint32{0, 1, 5, last, last - 1, last + 1, (size - 8) >> f.shift,
			wrap, wrap + 2, 1<<31 + 3, math.MaxUint32} {
			p.call(f.name, f.what, uint64(i), 0)
		}
	}
	var committed [2][]int
	for i, inst := range []*Instance{p.lo, p.tf} {
		for pg, data := range inst.Memory().PageSlice() {
			if data != nil {
				committed[i] = append(committed[i], pg)
			}
		}
	}
	if !slices.Equal(committed[0], committed[1]) {
		t.Errorf("committed pages differ: liftoff %v, turbofan %v", committed[0], committed[1])
	}
}

// TestReadModifyWriteDifferential covers what may sit between the load and
// the add of an in-place i64 update. Instructions that compute the addend
// without touching the loaded value let the update fuse into one
// `i64.add@mem`; a `local.tee` of the loaded value, or an addend computed
// from it, reads the register the fusion would leave unwritten, so the load
// has to stay.
func TestReadModifyWriteDifferential(t *testing.T) {
	shapes := []struct {
		name    string
		between func(f *wasm.FuncBuilder, copy wasm.Local)
	}{
		{"addend from a parameter", func(f *wasm.FuncBuilder, _ wasm.Local) {
			f.LocalGet(f.Param(1))
			f.I64Const(3)
			f.I64Mul()
		}},
		{"addend from the loaded value", func(f *wasm.FuncBuilder, copy wasm.Local) {
			f.LocalTee(copy)
			f.LocalGet(copy)
			f.I64Const(3)
			f.I64Mul()
		}},
		{"loaded value doubled", func(f *wasm.FuncBuilder, copy wasm.Local) {
			f.LocalTee(copy)
			f.LocalGet(copy)
		}},
		{"tee whose local stays live", func(f *wasm.FuncBuilder, copy wasm.Local) {
			f.LocalTee(copy)
			f.LocalGet(f.Param(1))
		}},
		{"tee, then an addend that overwrites the copy's source", func(f *wasm.FuncBuilder, copy wasm.Local) {
			f.LocalTee(copy)
			f.LocalGet(copy)
			f.LocalGet(f.Param(1))
			f.I64Add()
			f.LocalTee(f.Param(1))
		}},
	}
	for _, s := range shapes {
		b := wasm.NewModuleBuilder()
		b.ImportMemory("env", "memory", diffPages, diffPages)
		b.AddData(0, bytes.Repeat([]byte{5, 0, 0, 0, 0, 0, 0, 0x80}, 512))
		f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		copy, slot := f.AddLocal(wasm.I64), f.AddLocal(wasm.I32)
		f.LocalGet(f.Param(0))
		f.Op(wasm.OpI32WrapI64)
		f.LocalSet(slot)
		f.LocalGet(slot)
		f.LocalGet(slot)
		f.I64Load(40)
		s.between(f, copy)
		f.I64Add()
		f.I64Store(40)
		f.LocalGet(copy)
		f.LocalGet(f.Param(1))
		f.Op(wasm.OpI64Xor)
		b.Export("p", wasm.ExternFunc, f.Index)
		bin := b.Bytes()
		// In bounds, and a slot whose last byte lies past the end of memory.
		for _, addr := range []uint64{64, diffPages*wmem.PageSize - 47} {
			if _, diff := diffTiers(t, bin, 1<<20, addr, 0x1_0000_0007); diff != "" {
				t.Errorf("%s, slot %#x: %s", s.name, addr, diff)
			}
		}
	}
}
