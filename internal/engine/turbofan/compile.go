package turbofan

import (
	"fmt"

	"wasmdb/internal/wasm"
)

// Code is a turbofan-compiled function body.
type Code struct {
	Name     string
	NParams  int
	NResults int
	NLocals  int
	MaxStack int
	ins      []tin
	tables   [][]uint32 // br_table jump tables (pcs after linearization)
	// Passes reports how many optimization passes ran (for introspection).
	Passes int
}

// Compile translates and optimizes one validated function body with the
// default number of optimization rounds.
func Compile(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	return CompileRounds(m, fn, DefaultOptRounds)
}

// DefaultOptRounds is the standard number of optimization rounds — the
// TurboFan-grade setting. Higher values model heavier (LLVM-grade)
// optimizing compilers: each round re-runs folding, fusion, jump threading,
// and liveness-based DCE over the whole block graph, so compile time grows
// accordingly while code quality saturates.
const DefaultOptRounds = 2

// CompileRounds compiles with an explicit optimization budget.
func CompileRounds(m *wasm.Module, fn *wasm.Func, rounds int) (*Code, error) {
	ft := m.Types[fn.Type]
	lo := &lowerer{
		m: m,
		code: &Code{
			Name:     fn.Name,
			NParams:  len(ft.Params),
			NResults: len(ft.Results),
			NLocals:  len(ft.Params) + len(fn.Locals),
		},
	}
	if err := lo.translate(fn.Body, len(ft.Results)); err != nil {
		return nil, fmt.Errorf("turbofan: %s: %w", fn.Name, err)
	}
	g := buildBlocks(lo.code.ins, lo.tables)
	opt := &optimizer{g: g, nRegs: lo.code.NLocals + lo.code.MaxStack, code: lo.code, rounds: rounds}
	opt.run()
	lo.code.Passes = opt.passes
	linearize(lo.code, g)
	return lo.code, nil
}

// ---------------------------------------------------------------------------
// Lowering: structured wasm → linear register code with pc targets.

type lctrl struct {
	isLoop    bool
	height    int
	arity     int
	startPC   int
	patches   []int // instruction indices whose imm awaits this label's end pc
	elsePatch int
	endLive   bool
	liveIn    bool
}

type lowerer struct {
	m      *wasm.Module
	code   *Code
	tables [][]uint32 // entries are pcs during lowering
	height int
	live   bool
	ctrls  []lctrl
}

func (lo *lowerer) base() int32 { return int32(lo.code.NLocals) }

func (lo *lowerer) reg(slot int) int32 { return lo.base() + int32(slot) }

func (lo *lowerer) emit(t tin) int {
	lo.code.ins = append(lo.code.ins, t)
	return len(lo.code.ins) - 1
}

func (lo *lowerer) adjust(pop, push int) {
	lo.height += push - pop
	if lo.height > lo.code.MaxStack {
		lo.code.MaxStack = lo.height
	}
}

func (lo *lowerer) pc() int { return len(lo.code.ins) }

func (lo *lowerer) translate(body []wasm.Instr, funcArity int) error {
	lo.live = true
	lo.ctrls = []lctrl{{arity: funcArity, liveIn: true, elsePatch: -1}}
	for _, in := range body {
		if err := lo.instr(in); err != nil {
			return err
		}
		if len(lo.ctrls) == 0 {
			return nil
		}
	}
	return fmt.Errorf("missing end")
}

// unwindMoves emits the moves placing the top arity values at targetHeight.
func (lo *lowerer) unwindMoves(targetHeight, arity int) {
	src := lo.height - arity
	if src == targetHeight {
		return
	}
	for i := 0; i < arity; i++ {
		lo.emit(tin{op: tMove, d: lo.reg(targetHeight + i), a: lo.reg(src + i)})
	}
}

func (lo *lowerer) branch(depth uint64, conditional bool) error {
	if depth >= uint64(len(lo.ctrls)) {
		return fmt.Errorf("branch depth out of range")
	}
	t := &lo.ctrls[len(lo.ctrls)-1-int(depth)]
	cond := lo.reg(lo.height) // already popped by caller
	needMoves := lo.height-t.arity != t.height
	if t.isLoop {
		needMoves = lo.height != t.height
	}
	if !conditional {
		if t.isLoop {
			lo.unwindMoves(t.height, 0)
			lo.emit(tin{op: tJump, imm: uint64(t.startPC)})
		} else {
			lo.unwindMoves(t.height, t.arity)
			t.patches = append(t.patches, lo.emit(tin{op: tJump}))
			t.endLive = true
		}
		return nil
	}
	if !needMoves {
		if t.isLoop {
			lo.emit(tin{op: tJumpIfNot, a: cond, imm: uint64(t.startPC)})
		} else {
			t.patches = append(t.patches, lo.emit(tin{op: tJumpIfNot, a: cond}))
			t.endLive = true
		}
		return nil
	}
	// Conditional with unwinding: skip over the move sequence when the
	// branch is not taken.
	skip := lo.emit(tin{op: tJumpIfZero, a: cond})
	if t.isLoop {
		lo.unwindMoves(t.height, 0)
		lo.emit(tin{op: tJump, imm: uint64(t.startPC)})
	} else {
		lo.unwindMoves(t.height, t.arity)
		t.patches = append(t.patches, lo.emit(tin{op: tJump}))
		t.endLive = true
	}
	lo.code.ins[skip].imm = uint64(lo.pc())
	return nil
}

func (lo *lowerer) instr(in wasm.Instr) error {
	if !lo.live {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			lo.ctrls = append(lo.ctrls, lctrl{liveIn: false, elsePatch: -1, isLoop: in.Op == wasm.OpLoop})
		case wasm.OpElse:
			t := &lo.ctrls[len(lo.ctrls)-1]
			if t.liveIn {
				if t.elsePatch >= 0 {
					lo.code.ins[t.elsePatch].imm = uint64(lo.pc())
					t.elsePatch = -1
				}
				lo.live = true
				lo.height = t.height
			}
		case wasm.OpEnd:
			t := lo.ctrls[len(lo.ctrls)-1]
			lo.ctrls = lo.ctrls[:len(lo.ctrls)-1]
			if len(lo.ctrls) == 0 {
				return nil
			}
			endPC := lo.pc()
			for _, p := range t.patches {
				lo.code.ins[p].imm = uint64(endPC)
			}
			if t.elsePatch >= 0 {
				lo.code.ins[t.elsePatch].imm = uint64(endPC)
				t.endLive = t.endLive || t.liveIn
			}
			if t.endLive {
				lo.live = true
				lo.height = t.height + t.arity
				if lo.height > lo.code.MaxStack {
					lo.code.MaxStack = lo.height
				}
			}
		}
		return nil
	}

	B := lo.height
	switch in.Op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		lo.emit(tin{op: tUnreachable})
		lo.live = false
	case wasm.OpBlock:
		lo.ctrls = append(lo.ctrls, lctrl{height: lo.height, arity: len(wasm.BlockType(in.A).Results()), liveIn: true, elsePatch: -1})
	case wasm.OpLoop:
		lo.ctrls = append(lo.ctrls, lctrl{isLoop: true, height: lo.height, arity: len(wasm.BlockType(in.A).Results()), startPC: lo.pc(), liveIn: true, elsePatch: -1})
	case wasm.OpIf:
		lo.adjust(1, 0)
		idx := lo.emit(tin{op: tJumpIfZero, a: lo.reg(lo.height)})
		lo.ctrls = append(lo.ctrls, lctrl{height: lo.height, arity: len(wasm.BlockType(in.A).Results()), liveIn: true, elsePatch: idx})
	case wasm.OpElse:
		t := &lo.ctrls[len(lo.ctrls)-1]
		idx := lo.emit(tin{op: tJump})
		t.patches = append(t.patches, idx)
		t.endLive = true
		if t.elsePatch >= 0 {
			lo.code.ins[t.elsePatch].imm = uint64(lo.pc())
			t.elsePatch = -1
		}
		lo.height = t.height
	case wasm.OpEnd:
		t := lo.ctrls[len(lo.ctrls)-1]
		lo.ctrls = lo.ctrls[:len(lo.ctrls)-1]
		if len(lo.ctrls) == 0 {
			lo.emitReturn()
			return nil
		}
		endPC := lo.pc()
		if t.elsePatch >= 0 {
			lo.code.ins[t.elsePatch].imm = uint64(endPC)
		}
		for _, p := range t.patches {
			lo.code.ins[p].imm = uint64(endPC)
		}
		lo.height = t.height + t.arity
		if lo.height > lo.code.MaxStack {
			lo.code.MaxStack = lo.height
		}
	case wasm.OpBr:
		if err := lo.branch(in.A, false); err != nil {
			return err
		}
		lo.live = false
	case wasm.OpBrIf:
		lo.adjust(1, 0)
		if err := lo.branch(in.A, true); err != nil {
			return err
		}
	case wasm.OpBrTable:
		lo.adjust(1, 0)
		idxReg := lo.reg(lo.height)
		tid := len(lo.tables)
		lo.tables = append(lo.tables, nil)
		lo.emit(tin{op: tBrTable, a: idxReg, imm: uint64(tid)})
		// Emit one stub per target performing that target's unwinding.
		entries := make([]uint32, 0, len(in.Table)+1)
		addStub := func(depth uint64) error {
			if depth >= uint64(len(lo.ctrls)) {
				return fmt.Errorf("br_table depth out of range")
			}
			t := &lo.ctrls[len(lo.ctrls)-1-int(depth)]
			entries = append(entries, uint32(lo.pc()))
			if t.isLoop {
				lo.unwindMoves(t.height, 0)
				lo.emit(tin{op: tJump, imm: uint64(t.startPC)})
			} else {
				lo.unwindMoves(t.height, t.arity)
				t.patches = append(t.patches, lo.emit(tin{op: tJump}))
				t.endLive = true
			}
			return nil
		}
		for _, d := range in.Table {
			if err := addStub(uint64(d)); err != nil {
				return err
			}
		}
		if err := addStub(in.A); err != nil {
			return err
		}
		lo.tables[tid] = entries
		lo.live = false
	case wasm.OpReturn:
		lo.emitReturn()
		lo.live = false
	case wasm.OpCall:
		ft, err := lo.m.FuncTypeAt(uint32(in.A))
		if err != nil {
			return err
		}
		np, nr := len(ft.Params), len(ft.Results)
		lo.adjust(np, 0)
		lo.emit(tin{op: tCall, a: lo.reg(lo.height), b: int32(np<<16 | nr), imm: in.A})
		lo.adjust(0, nr)
	case wasm.OpCallIndirect:
		ft := lo.m.Types[in.A]
		np, nr := len(ft.Params), len(ft.Results)
		lo.adjust(np+1, 0)
		lo.emit(tin{op: tCallIndirect, a: lo.reg(lo.height), b: int32(np<<16 | nr), imm: in.A})
		lo.adjust(0, nr)
	case wasm.OpDrop:
		lo.adjust(1, 0)
	case wasm.OpSelect:
		lo.adjust(3, 1)
		r := lo.reg(lo.height - 1)
		lo.emit(tin{op: tSelect, d: r, a: r, b: r + 1, imm: uint64(r + 2)})
	case wasm.OpLocalGet:
		lo.emit(tin{op: tMove, d: lo.reg(B), a: int32(in.A)})
		lo.adjust(0, 1)
	case wasm.OpLocalSet:
		lo.adjust(1, 0)
		lo.emit(tin{op: tMove, d: int32(in.A), a: lo.reg(lo.height)})
	case wasm.OpLocalTee:
		lo.emit(tin{op: tMove, d: int32(in.A), a: lo.reg(B - 1)})
	case wasm.OpGlobalGet:
		lo.emit(tin{op: tGlobalGet, d: lo.reg(B), imm: in.A})
		lo.adjust(0, 1)
	case wasm.OpGlobalSet:
		lo.adjust(1, 0)
		lo.emit(tin{op: tGlobalSet, a: lo.reg(lo.height), imm: in.A})
	case wasm.OpMemorySize:
		lo.emit(tin{op: uint16(wasm.OpMemorySize), d: lo.reg(B)})
		lo.adjust(0, 1)
	case wasm.OpMemoryGrow:
		r := lo.reg(B - 1)
		lo.emit(tin{op: uint16(wasm.OpMemoryGrow), d: r, a: r})
	default:
		pop, push, ok := in.Op.InOut()
		if !ok {
			return fmt.Errorf("unhandled opcode %s", in.Op)
		}
		lo.adjust(pop, 0)
		t := tin{op: uint16(in.Op), imm: in.A}
		switch {
		case pop == 0 && push == 1: // constants
			t.d = lo.reg(lo.height)
		case pop == 1 && push == 1: // unary, loads
			t.d = lo.reg(lo.height)
			t.a = lo.reg(lo.height)
		case pop == 2 && push == 1: // binary
			t.d = lo.reg(lo.height)
			t.a = lo.reg(lo.height)
			t.b = lo.reg(lo.height + 1)
		case pop == 2 && push == 0: // stores
			t.a = lo.reg(lo.height)
			t.b = lo.reg(lo.height + 1)
		default:
			return fmt.Errorf("unexpected signature for %s", in.Op)
		}
		lo.emit(t)
		lo.adjust(0, push)
	}
	return nil
}

func (lo *lowerer) emitReturn() {
	nres := lo.code.NResults
	src := lo.height - nres
	if src != 0 {
		for i := 0; i < nres; i++ {
			lo.emit(tin{op: tMove, d: lo.reg(i), a: lo.reg(src + i)})
		}
	}
	lo.emit(tin{op: tRet})
}
