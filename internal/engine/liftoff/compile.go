// Package liftoff is the fast baseline tier of the execution engine, named
// after V8's baseline compiler. It translates validated WebAssembly function
// bodies in a single pass into a flat instruction stream with resolved branch
// targets and executes it on a stack machine. Translation is deliberately
// cheap — one pass, no IR, no optimization — trading execution speed for
// minimal compile latency, exactly the role Liftoff plays in the paper's
// architecture (§2.2).
package liftoff

import (
	"fmt"

	"wasmdb/internal/wasm"
)

// Extended opcodes used by the flat instruction stream. Values below 0x100
// reuse the wasm.Opcode encoding unchanged.
const (
	opJump       = 0x100 + iota // a = target pc
	opJumpIfZero                // a = target pc; pops condition
	opJumpIfNot                 // a = target pc; pops condition, jumps if non-zero
	opBrUnwind                  // a = target pc, b = height<<8 | arity
	opBrIfUnwind                // like opBrUnwind but pops condition first
	opBrTable                   // a = table index into Code.tables; pops index
	opRet                       // return from function
)

type instr struct {
	op   uint16
	a, b uint64
}

type tableTarget struct {
	pc     uint32
	height uint32
	arity  uint32
}

// Code is a liftoff-compiled function body.
type Code struct {
	Name     string
	NParams  int
	NResults int
	NLocals  int // params + declared locals
	MaxStack int
	ins      []instr
	tables   [][]tableTarget
}

// NumInstrs returns the number of instructions emitted for the function.
func (c *Code) NumInstrs() int { return len(c.ins) }

// Compile translates one validated function body. The module supplies type
// information for calls.
func Compile(m *wasm.Module, fn *wasm.Func) (*Code, error) {
	ft := m.Types[fn.Type]
	c := &compiler{
		m: m,
		code: &Code{
			Name:     fn.Name,
			NParams:  len(ft.Params),
			NResults: len(ft.Results),
			NLocals:  len(ft.Params) + len(fn.Locals),
		},
	}
	if err := c.translate(fn.Body, len(ft.Results)); err != nil {
		return nil, fmt.Errorf("liftoff: %s: %w", fn.Name, err)
	}
	return c.code, nil
}

type ctrl struct {
	isLoop  bool
	isIf    bool
	height  int // operand height at entry
	arity   int // number of results
	startPC int // for loops: branch target
	// patches lists indices of emitted jumps waiting for this label's end pc.
	patches []int
	// elsePatch is the pending jumpIfZero of an if, patched at else/end.
	elsePatch int
	// endLive records whether the end of this construct is reachable.
	endLive bool
	liveIn  bool
}

type compiler struct {
	m      *wasm.Module
	code   *Code
	height int
	live   bool
	ctrls  []ctrl
}

func (c *compiler) emit(op uint16, a, b uint64) int {
	c.code.ins = append(c.code.ins, instr{op: op, a: a, b: b})
	return len(c.code.ins) - 1
}

func (c *compiler) adjust(pop, push int) {
	c.height += push - pop
	if c.height > c.code.MaxStack {
		c.code.MaxStack = c.height
	}
}

func (c *compiler) pc() int { return len(c.code.ins) }

func (c *compiler) translate(body []wasm.Instr, funcArity int) error {
	c.live = true
	c.ctrls = []ctrl{{arity: funcArity, liveIn: true, elsePatch: -1}}
	for _, in := range body {
		if err := c.instr(in); err != nil {
			return err
		}
		if len(c.ctrls) == 0 {
			return nil
		}
	}
	return fmt.Errorf("missing end")
}

// branchTarget emits the branch plumbing for a br/br_if to relative depth.
// For conditional branches the condition has already been popped from the
// compile-time height.
func (c *compiler) branch(depth uint64, conditional bool) error {
	if depth >= uint64(len(c.ctrls)) {
		return fmt.Errorf("branch depth out of range")
	}
	t := &c.ctrls[len(c.ctrls)-1-int(depth)]
	if t.isLoop {
		// Backward branch to loop header; loops have no label results.
		if c.height == t.height {
			if conditional {
				c.emit(opJumpIfNot, uint64(t.startPC), 0)
			} else {
				c.emit(opJump, uint64(t.startPC), 0)
			}
		} else {
			op := uint16(opBrUnwind)
			if conditional {
				op = opBrIfUnwind
			}
			c.emit(op, uint64(t.startPC), uint64(t.height)<<8)
		}
		return nil
	}
	t.endLive = true
	var idx int
	if c.height == t.height+t.arity {
		// No unwinding needed: stack already at target shape.
		if conditional {
			idx = c.emit(opJumpIfNot, 0, 0)
		} else {
			idx = c.emit(opJump, 0, 0)
		}
	} else {
		op := uint16(opBrUnwind)
		if conditional {
			op = opBrIfUnwind
		}
		idx = c.emit(op, 0, uint64(t.height)<<8|uint64(t.arity))
	}
	t.patches = append(t.patches, idx)
	return nil
}

func (c *compiler) instr(in wasm.Instr) error {
	if !c.live {
		// Dead code: track nesting only.
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			c.ctrls = append(c.ctrls, ctrl{liveIn: false, elsePatch: -1, isIf: in.Op == wasm.OpIf, isLoop: in.Op == wasm.OpLoop})
		case wasm.OpElse:
			t := &c.ctrls[len(c.ctrls)-1]
			if t.liveIn {
				// The if was reachable; the else arm is reachable again.
				if t.elsePatch >= 0 {
					c.code.ins[t.elsePatch].a = uint64(c.pc())
					t.elsePatch = -1
				}
				c.live = true
				c.height = t.height
			}
		case wasm.OpEnd:
			t := c.ctrls[len(c.ctrls)-1]
			c.ctrls = c.ctrls[:len(c.ctrls)-1]
			if len(c.ctrls) == 0 {
				return nil
			}
			endPC := c.pc()
			for _, p := range t.patches {
				c.resolvePatch(p, endPC)
			}
			if t.elsePatch >= 0 {
				// if without else whose then-arm ended dead: false path
				// falls through to end.
				c.code.ins[t.elsePatch].a = uint64(endPC)
				t.endLive = t.endLive || t.liveIn
			}
			if t.endLive {
				c.live = true
				c.height = t.height + t.arity
				if c.height > c.code.MaxStack {
					c.code.MaxStack = c.height
				}
			}
		}
		return nil
	}

	if pop, push, ok := in.Op.InOut(); ok {
		c.adjust(pop, 0)
		c.emit(uint16(in.Op), in.A, in.B)
		c.adjust(0, push)
		return nil
	}

	switch in.Op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		c.emit(uint16(wasm.OpUnreachable), 0, 0)
		c.live = false
	case wasm.OpBlock:
		c.ctrls = append(c.ctrls, ctrl{
			height: c.height, arity: len(wasm.BlockType(in.A).Results()),
			liveIn: true, elsePatch: -1,
		})
	case wasm.OpLoop:
		c.ctrls = append(c.ctrls, ctrl{
			isLoop: true, height: c.height, arity: len(wasm.BlockType(in.A).Results()),
			startPC: c.pc(), liveIn: true, elsePatch: -1,
		})
	case wasm.OpIf:
		c.adjust(1, 0)
		idx := c.emit(opJumpIfZero, 0, 0)
		c.ctrls = append(c.ctrls, ctrl{
			isIf: true, height: c.height, arity: len(wasm.BlockType(in.A).Results()),
			liveIn: true, elsePatch: idx,
		})
	case wasm.OpElse:
		t := &c.ctrls[len(c.ctrls)-1]
		// Jump over the else arm from the end of the then arm.
		idx := c.emit(opJump, 0, 0)
		t.patches = append(t.patches, idx)
		t.endLive = true
		if t.elsePatch >= 0 {
			c.code.ins[t.elsePatch].a = uint64(c.pc())
			t.elsePatch = -1
		}
		c.height = t.height
	case wasm.OpEnd:
		t := c.ctrls[len(c.ctrls)-1]
		c.ctrls = c.ctrls[:len(c.ctrls)-1]
		if len(c.ctrls) == 0 {
			c.emit(opRet, 0, 0)
			return nil
		}
		endPC := c.pc()
		if t.elsePatch >= 0 {
			// if without else: the false path jumps to end.
			c.code.ins[t.elsePatch].a = uint64(endPC)
		}
		for _, p := range t.patches {
			c.resolvePatch(p, endPC)
		}
		c.height = t.height + t.arity
		if c.height > c.code.MaxStack {
			c.code.MaxStack = c.height
		}
	case wasm.OpBr:
		if err := c.branch(in.A, false); err != nil {
			return err
		}
		c.live = false
	case wasm.OpBrIf:
		c.adjust(1, 0)
		if err := c.branch(in.A, true); err != nil {
			return err
		}
	case wasm.OpBrTable:
		c.adjust(1, 0)
		tbl := make([]tableTarget, 0, len(in.Table)+1)
		addTarget := func(depth uint64) error {
			if depth >= uint64(len(c.ctrls)) {
				return fmt.Errorf("br_table depth out of range")
			}
			t := &c.ctrls[len(c.ctrls)-1-int(depth)]
			tt := tableTarget{height: uint32(t.height)}
			if t.isLoop {
				tt.pc = uint32(t.startPC)
			} else {
				t.endLive = true
				tt.arity = uint32(t.arity)
				// Patched below via tablePatches.
				tt.pc = ^uint32(0)
				t.patches = append(t.patches, -(len(c.code.tables)<<16|len(tbl))-1)
			}
			tbl = append(tbl, tt)
			return nil
		}
		for _, d := range in.Table {
			if err := addTarget(uint64(d)); err != nil {
				return err
			}
		}
		if err := addTarget(in.A); err != nil {
			return err
		}
		c.code.tables = append(c.code.tables, tbl)
		c.emit(opBrTable, uint64(len(c.code.tables)-1), 0)
		c.live = false
	case wasm.OpReturn:
		c.emit(opRet, 0, 0)
		c.live = false
	case wasm.OpCall:
		ft, err := c.m.FuncTypeAt(uint32(in.A))
		if err != nil {
			return err
		}
		c.adjust(len(ft.Params), 0)
		c.emit(uint16(wasm.OpCall), in.A, uint64(len(ft.Params))<<8|uint64(len(ft.Results)))
		c.adjust(0, len(ft.Results))
	case wasm.OpCallIndirect:
		ft := c.m.Types[in.A]
		c.adjust(1+len(ft.Params), 0)
		c.emit(uint16(wasm.OpCallIndirect), in.A, uint64(len(ft.Params))<<8|uint64(len(ft.Results)))
		c.adjust(0, len(ft.Results))
	case wasm.OpDrop:
		c.adjust(1, 0)
		c.emit(uint16(wasm.OpDrop), 0, 0)
	case wasm.OpSelect:
		c.adjust(3, 1)
		c.emit(uint16(wasm.OpSelect), 0, 0)
	case wasm.OpLocalGet:
		c.emit(uint16(wasm.OpLocalGet), in.A, 0)
		c.adjust(0, 1)
	case wasm.OpLocalSet:
		c.adjust(1, 0)
		c.emit(uint16(wasm.OpLocalSet), in.A, 0)
	case wasm.OpLocalTee:
		c.emit(uint16(wasm.OpLocalTee), in.A, 0)
	case wasm.OpGlobalGet:
		c.emit(uint16(wasm.OpGlobalGet), in.A, 0)
		c.adjust(0, 1)
	case wasm.OpGlobalSet:
		c.adjust(1, 0)
		c.emit(uint16(wasm.OpGlobalSet), in.A, 0)
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}

// resolveTablePatches fixes up br_table targets encoded as negative patch
// entries in ctrl.patches. It is called from the End handling above through
// the shared patch list: negative entries encode (table index, slot).
func (c *compiler) resolvePatch(p, endPC int) {
	if p >= 0 {
		c.code.ins[p].a = uint64(endPC)
		return
	}
	key := -(p + 1)
	ti, slot := key>>16, key&0xFFFF
	c.code.tables[ti][slot].pc = uint32(endPC)
}
