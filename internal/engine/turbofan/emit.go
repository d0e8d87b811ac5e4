package turbofan

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"wasmdb/internal/wasm"
)

// The emitter is the one translation from WebAssembly to the register
// machine: a single forward pass over a validated body with an abstract value
// stack — no IR, no liveness, no second pass. The baseline compiler is this
// pass alone; the optimizing compiler starts from its output.
//
// Operand-stack position i has a canonical register, NLocals+i, but a pushed
// value need not be there yet: local.get and the constants push a slot that
// only says where the value is and emit nothing. An operation reads a local's
// register directly, takes a constant operand as the ops table's immediate
// form (a left-hand one through the table's swap relation, or rsub) and
// writes its result to the canonical register of the position it pushes.
// local.set and local.tee retarget the destination of the instruction that
// just produced the top of the stack instead of copying it, and a constant
// shift directly in front of a load becomes the load's scaled form. An
// operation whose operands are all constant is evaluated here (pureEval) and
// pushes its result as a constant; a select with a constant condition keeps
// one arm. A br_if or if whose condition a comparison or eqz has just
// computed takes that instruction back and becomes one compare-and-branch.
//
// Besides constant slots, a local counts as constant where an operation
// folds or takes an immediate: a local.set of a constant records it, and
// every control instruction forgets all such records at once by advancing
// an epoch, so the record never outlives the straight-line code it was made
// in — it needs no liveness.
//
// Two rules keep the abstraction sound. Before local x is overwritten, every
// slot that still says "the value is in x" is copied to its canonical
// register. And wherever control splits, merges or may come back — loop, if,
// else, end, every branch, return — the whole stack is flushed to canonical
// registers first (a call flushes its arguments, which it reads from there):
// at a label every value is where every other path put it, so no
// reconciliation is needed. A block's entry is none of those places.

type slotKind uint8

const (
	inReg   slotKind = iota // in the slot's canonical register
	inLocal                 // in local v, which has not been written since the push
	isConst                 // the constant v, pushed by wasm opcode op
)

type slot struct {
	kind slotKind
	op   uint16
	v    uint64
}

// label is an open block, loop or if.
type label struct {
	isLoop  bool
	liveIn  bool // entered by reachable code
	endLive bool // a branch targets its end
	height  int  // operand height at entry
	arity   int  // results
	startPC int  // loop: the branch target
	// pending heads the chain of emitted jumps that await the label's end pc;
	// each link is the imm of the jump before it. elseJump is an if's branch
	// over its then-arm until else or end binds it. Both are -1 when empty.
	pending  int
	elseJump int
}

type emitter struct {
	m      *wasm.Module
	code   *Code
	base   int32 // canonical register of stack position 0
	stack  []slot
	labels []label
	live   bool
	// lastDef is the index of the newest instruction that wrote a canonical
	// register. It stands for "the instruction that produced the top of the
	// stack" only while it is the last one emitted and no label has been bound
	// behind it; control instructions reset it to -1.
	lastDef int
	// consts[x] is the constant local x was last set to; it holds while its
	// epoch is the emitter's, which every control instruction advances.
	consts []localConst
	epoch  uint32
}

type localConst struct {
	v     uint64
	epoch uint32
}

// emitBuf is the emitter's working storage: the instruction stream, the
// abstract stack, the open labels and the constant-local records. Compiles
// take one from emitBufs and put it back when they are done with the stream,
// so a compile allocates no working storage once the pool is warm, and its
// code once, at its exact length (CompileBaseline) or not at all (the
// optimizing tier, which lays the code out anew).
type emitBuf struct {
	ins    []tin
	stack  []slot
	labels []label
	consts []localConst
}

var emitBufs = sync.Pool{New: func() any { return new(emitBuf) }}

// emitFunc translates one validated function body, reading its bytes one
// instruction at a time through wasm.Reader, into buf: the returned Code's
// ins is buf's stream, which the caller copies out or drops before it puts
// buf back into emitBufs.
func emitFunc(m *wasm.Module, fn *wasm.Func, buf *emitBuf) (*Code, error) {
	ft := m.Types[fn.Type]
	nLocals := len(ft.Params) + len(fn.Locals)
	e := &emitter{
		m: m,
		code: &Code{
			Name:     fn.Name,
			NParams:  len(ft.Params),
			NResults: len(ft.Results),
			NLocals:  nLocals,
			ins:      buf.ins[:0],
		},
		base:    int32(nLocals),
		stack:   buf.stack[:0],
		labels:  buf.labels[:0],
		live:    true,
		lastDef: -1,
		epoch:   1,
		consts:  slices.Grow(buf.consts[:0], nLocals)[:nLocals],
	}
	clear(e.consts)
	e.labels = append(e.labels, label{arity: len(ft.Results), liveIn: true, pending: -1, elseJump: -1})
	var in wasm.Instr
	r := wasm.NewReader(fn.Code)
	for r.Next(&in) {
		if err := e.instr(&in); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Keep what grew for the next compile.
	buf.ins, buf.stack, buf.labels, buf.consts = e.code.ins, e.stack, e.labels, e.consts
	return e.code, nil
}

func (e *emitter) pc() int { return len(e.code.ins) }

func (e *emitter) emit(t tin) int {
	e.code.ins = append(e.code.ins, t)
	return len(e.code.ins) - 1
}

// def emits an instruction whose destination is a canonical register.
func (e *emitter) def(t tin) {
	e.lastDef = len(e.code.ins)
	e.code.ins = append(e.code.ins, t)
}

func (e *emitter) push(s slot) {
	e.stack = append(e.stack, s)
	if len(e.stack) > e.code.MaxStack {
		e.code.MaxStack = len(e.stack)
	}
}

// reg returns the register that holds stack position i, first loading a
// constant into the position's canonical register.
func (e *emitter) reg(i int) int32 {
	s := &e.stack[i]
	switch s.kind {
	case inLocal:
		return int32(s.v)
	case isConst:
		e.emit(tin{op: s.op, d: e.base + int32(i), imm: s.v})
		s.kind = inReg
	}
	return e.base + int32(i)
}

// flush puts every value from stack position from upwards into its canonical
// register.
func (e *emitter) flush(from int) {
	for i := from; i < len(e.stack); i++ {
		if s := &e.stack[i]; s.kind == inLocal {
			e.emit(tin{op: tMove, d: e.base + int32(i), a: int32(s.v)})
			s.kind = inReg
		} else {
			e.reg(i)
		}
	}
}

// setHeight makes the stack height canonical-register slots followed by n
// more: the shape every path reaches a label's end in.
func (e *emitter) setHeight(height, n int) {
	e.stack = e.stack[:height]
	for ; n > 0; n-- {
		e.push(slot{})
	}
}

// producer returns the instruction that produced the top of the stack when it
// is the last one emitted, or nil.
func (e *emitter) producer() *tin {
	top := len(e.stack) - 1
	if e.stack[top].kind != inReg || e.lastDef != len(e.code.ins)-1 {
		return nil
	}
	if t := &e.code.ins[e.lastDef]; t.d == e.base+int32(top) {
		return t
	}
	return nil
}

// constant returns the value of stack position i when it is a constant or a
// local last set to one since the last control instruction.
func (e *emitter) constant(i int) (uint64, bool) {
	switch s := e.stack[i]; s.kind {
	case isConst:
		return s.v, true
	case inLocal:
		if e.consts[s.v].epoch == e.epoch {
			return e.consts[s.v].v, true
		}
	}
	return 0, false
}

// fold replaces the top n stack positions, the constant operands of op, with
// the constant op computes from x and y, if op may be evaluated here.
func (e *emitter) fold(op uint16, n int, x, y uint64) bool {
	v, ok := pureEval(op, x, y)
	if !ok {
		return false
	}
	c := wasm.OpI32Const
	switch t, _ := wasm.Opcode(op).ResultType(); t {
	case wasm.I64:
		c = wasm.OpI64Const
	case wasm.F32:
		c = wasm.OpF32Const
	case wasm.F64:
		c = wasm.OpF64Const
	}
	e.stack = e.stack[:len(e.stack)-n+1]
	e.stack[len(e.stack)-1] = slot{kind: isConst, op: uint16(c), v: v}
	return true
}

// setLocal emits local.set (tee=false) or local.tee of local x.
func (e *emitter) setLocal(x int32, tee bool) {
	top := len(e.stack) - 1
	if c, ok := e.constant(top); ok {
		e.consts[x] = localConst{c, e.epoch}
	} else {
		e.consts[x].epoch = 0 // never current: the epoch starts at 1
	}
	for i := 0; i < top; i++ {
		if s := &e.stack[i]; s.kind == inLocal && int32(s.v) == x {
			e.emit(tin{op: tMove, d: e.base + int32(i), a: x})
			s.kind = inReg
		}
	}
	switch s := &e.stack[top]; s.kind {
	case isConst:
		e.emit(tin{op: s.op, d: x, imm: s.v})
	case inLocal:
		if int32(s.v) != x {
			e.emit(tin{op: tMove, d: x, a: int32(s.v)})
		}
	default:
		if p := e.producer(); p != nil {
			p.d = x
			*s = slot{kind: inLocal, v: uint64(x)}
		} else {
			e.emit(tin{op: tMove, d: x, a: e.base + int32(top)})
		}
	}
	if !tee {
		e.stack = e.stack[:top]
	}
}

// binary emits a two-operand value operation. Two constant operands fold; one
// selects the immediate form where the table has one, and the right-hand
// constant wins when both are but the operation cannot be evaluated here (it
// may trap).
func (e *emitter) binary(op uint16) {
	n := len(e.stack)
	lc, lok := e.constant(n - 2)
	rc, rok := e.constant(n - 1)
	if lok && rok && e.fold(op, 2, lc, rc) {
		return
	}
	t := tin{op: op, d: e.base + int32(n-2)}
	var (
		form  uint16
		c     uint64
		ok    bool
		other = n - 2
	)
	switch {
	case rok:
		form, c, ok = immForm(op, rc, false)
	case lok:
		form, c, ok = immForm(op, lc, true)
		other = n - 1
	}
	if ok {
		t.op, t.a, t.imm = form, e.reg(other), c
	} else {
		t.a, t.b = e.reg(n-2), e.reg(n-1)
	}
	e.def(t)
	e.stack = e.stack[:n-1]
	e.stack[n-2] = slot{}
}

// load emits a load. A constant shift of the index right in front of it
// moves into the load's scaled form.
func (e *emitter) load(op uint16, offset uint64) {
	top := len(e.stack) - 1
	d := e.base + int32(top)
	if p := e.producer(); p != nil && p.op == tI32ShlImm && ops[op].scaled != 0 {
		*p = tin{op: ops[op].scaled, d: d, a: p.a, b: int32(p.imm), imm: offset}
		return
	}
	e.def(tin{op: op, d: d, a: e.reg(top), imm: offset})
	e.stack[top] = slot{}
}

// moveValues moves the n values from stack position src upwards to position
// dst upwards; the stack has been flushed.
func (e *emitter) moveValues(dst, src, n int) {
	if src == dst {
		return
	}
	for i := 0; i < n; i++ {
		e.emit(tin{op: tMove, d: e.base + int32(dst+i), a: e.base + int32(src+i)})
	}
}

// branchTo emits the transfer to a label: the moves that put the values the
// label receives where it expects them, then the jump.
func (e *emitter) branchTo(l *label) {
	if l.isLoop {
		e.emit(tin{op: tJump, imm: uint64(l.startPC)})
		return
	}
	e.moveValues(l.height, len(e.stack)-l.arity, l.arity)
	l.pending = e.emit(tin{op: tJump, imm: uint64(int64(l.pending))})
	l.endLive = true
}

// bind resolves a chain of pending jumps to the current pc.
func (e *emitter) bind(chain int) {
	for pc := uint64(e.pc()); chain >= 0; {
		t := &e.code.ins[chain]
		chain = int(int64(t.imm))
		t.imm = pc
	}
}

func (e *emitter) labelAt(depth uint64) (*label, error) {
	if depth >= uint64(len(e.labels)) {
		return nil, fmt.Errorf("branch depth out of range")
	}
	return &e.labels[len(e.labels)-1-int(depth)], nil
}

func (e *emitter) pushLabel(in *wasm.Instr, l label) {
	l.isLoop = in.Op == wasm.OpLoop
	l.arity = len(wasm.BlockType(in.A).Results())
	l.pending = -1
	e.labels = append(e.labels, l)
}

// call emits a call whose arguments (and table index) start at stack position
// first: they are flushed, because the callee reads them from their
// registers, and replaced by the results.
func (e *emitter) call(op uint16, imm uint64, ft wasm.FuncType, first int) {
	e.flush(first)
	e.emit(tin{op: op, a: e.base + int32(first), b: int32(len(ft.Params)<<16 | len(ft.Results)), imm: imm})
	e.setHeight(first, len(ft.Results))
}

// popCond pops the condition or index a control instruction consumes, flushes
// what stays on the stack and returns the register to test.
func (e *emitter) popCond() int32 {
	top := len(e.stack) - 1
	r := e.reg(top)
	e.stack = e.stack[:top]
	e.flush(0)
	return r
}

// popBranch pops the condition of br_if or if, flushes what stays on the
// stack and returns the branch taken when the condition holds, its target
// left to the caller. A comparison or eqz that has just computed the
// condition is taken back and the branch tests its operands instead
// (br.<cmp>, br.<cmp>@imm; eqz flips the polarity). The flush cannot
// overwrite those operands: they are locals or the canonical registers of the
// positions the comparison popped, which lie above what is flushed.
func (e *emitter) popBranch() tin {
	if p := e.producer(); p != nil {
		if br, ok := fusedBranch(p); ok {
			e.code.ins = e.code.ins[:len(e.code.ins)-1]
			e.stack = e.stack[:len(e.stack)-1]
			e.flush(0)
			return br
		}
	}
	return tin{op: tJumpIfNot, a: e.popCond()}
}

// fusedBranch returns the branch taken when comparison or eqz p holds, and
// whether there is one.
func fusedBranch(p *tin) (tin, bool) {
	switch {
	case p.op == uint16(wasm.OpI32Eqz) || p.op == uint16(wasm.OpI64Eqz):
		// Registers hold i32 values zero-extended, so testing the whole
		// register is right for i32.eqz as well.
		return tin{op: tJumpIfZero, a: p.a}, true
	case ops[p.op].kind == kindBinImm:
		// A constant the fused form cannot hold keeps the comparison: no
		// worse than loading the constant.
		b, fits := brImmOperand(p.op >= tI64EqImm, p.imm)
		return tin{op: ops[p.op].br, a: p.a, b: b}, fits && ops[p.op].br != 0
	}
	return tin{op: ops[p.op].br, a: p.a, b: p.b}, ops[p.op].br != 0
}

// ret emits return: the results move to the bottom of the stack.
func (e *emitter) ret() {
	e.flush(0)
	n := e.code.NResults
	e.moveValues(0, len(e.stack)-n, n)
	e.emit(tin{op: tRet})
}

// end closes the innermost label; reachable reports whether control falls
// into the end from the code in front of it.
func (e *emitter) end(reachable bool) {
	l := e.labels[len(e.labels)-1]
	e.labels = e.labels[:len(e.labels)-1]
	if reachable {
		e.flush(0)
	}
	e.bind(l.pending)
	if l.elseJump >= 0 {
		// An if without else: the false path continues at the end.
		e.bind(l.elseJump)
		reachable = reachable || l.liveIn
	}
	switch {
	case !reachable && !l.endLive:
	case len(e.labels) == 0:
		// The function's end: validation left exactly the results on the
		// stack, and a branch here has moved them to the same registers.
		e.emit(tin{op: tRet})
	default:
		e.live = true
		e.setHeight(l.height, l.arity)
	}
}

func (e *emitter) instr(in *wasm.Instr) error {
	if !e.live {
		// Unreachable code emits nothing; only the nesting is tracked.
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			e.pushLabel(in, label{elseJump: -1})
		case wasm.OpElse:
			if l := &e.labels[len(e.labels)-1]; l.liveIn {
				e.bind(l.elseJump)
				l.elseJump = -1
				e.live = true
				e.setHeight(l.height, 0)
			}
		case wasm.OpEnd:
			e.end(false)
		}
		return nil
	}

	n := len(e.stack)
	switch in.Op {
	case wasm.OpLocalGet:
		e.push(slot{kind: inLocal, v: in.A})
		return nil
	case wasm.OpLocalSet:
		e.setLocal(int32(in.A), false)
		return nil
	case wasm.OpLocalTee:
		e.setLocal(int32(in.A), true)
		return nil
	case wasm.OpDrop:
		e.stack = e.stack[:n-1]
		return nil
	case wasm.OpNop:
		return nil
	case wasm.OpGlobalGet:
		e.def(tin{op: tGlobalGet, d: e.base + int32(n), imm: in.A})
		e.push(slot{})
		return nil
	case wasm.OpGlobalSet:
		e.emit(tin{op: tGlobalSet, a: e.reg(n - 1), imm: in.A})
		e.stack = e.stack[:n-1]
		return nil
	case wasm.OpMemorySize:
		e.def(tin{op: uint16(wasm.OpMemorySize), d: e.base + int32(n)})
		e.push(slot{})
		return nil
	case wasm.OpSelect:
		if c, ok := e.constant(n - 1); ok {
			// A constant condition keeps one arm, moved to the result's
			// position if it is in the false arm's register.
			keep := e.stack[n-3]
			if c == 0 {
				if keep = e.stack[n-2]; keep.kind == inReg {
					e.def(tin{op: tMove, d: e.base + int32(n-3), a: e.base + int32(n-2)})
				}
			}
			e.stack = e.stack[:n-2]
			e.stack[n-3] = keep
			return nil
		}
		d, cond, a := e.base+int32(n-3), e.reg(n-1), e.reg(n-3)
		if f, ok := e.constant(n - 2); ok && f <= math.MaxUint32 {
			e.def(tin{op: tSelectImm, d: d, a: a, b: int32(uint32(f)), imm: uint64(cond)})
		} else {
			e.def(tin{op: tSelect, d: d, a: a, b: e.reg(n - 2), imm: uint64(cond)})
		}
		e.stack = e.stack[:n-2]
		e.stack[n-3] = slot{}
		return nil
	}
	switch op := uint16(in.Op); ops[op].kind {
	case kindConst:
		e.push(slot{kind: isConst, op: op, v: in.A})
		return nil
	case kindBin:
		e.binary(op)
		return nil
	case kindLoad:
		e.load(op, in.A)
		return nil
	case kindUn, kindMemoryGrow:
		if c, ok := e.constant(n - 1); ok && e.fold(op, 1, c, 0) {
			return nil
		}
		e.def(tin{op: op, d: e.base + int32(n-1), a: e.reg(n - 1)})
		e.stack[n-1] = slot{}
		return nil
	case kindStore:
		e.emit(tin{op: op, a: e.reg(n - 2), b: e.reg(n - 1), imm: in.A})
		e.stack = e.stack[:n-2]
		return nil
	}

	// Control: no instruction behind a label may be taken for the producer of
	// a value in front of it, and no local keeps a constant across one.
	switch in.Op {
	case wasm.OpUnreachable:
		e.emit(tin{op: tUnreachable})
		e.live = false
	case wasm.OpBlock:
		// No flush: the block's end is reached by falling into it or by a
		// branch, and both flush.
		e.pushLabel(in, label{height: n, liveIn: true, elseJump: -1})
	case wasm.OpLoop:
		e.flush(0)
		e.pushLabel(in, label{height: n, liveIn: true, elseJump: -1, startPC: e.pc()})
	case wasm.OpIf:
		br := e.popBranch()
		br.op, br.imm = ops[br.op].inv, ^uint64(0)
		e.pushLabel(in, label{height: n - 1, liveIn: true, elseJump: e.emit(br)})
	case wasm.OpElse:
		l := &e.labels[len(e.labels)-1]
		e.flush(0)
		l.pending = e.emit(tin{op: tJump, imm: uint64(int64(l.pending))})
		l.endLive = true
		e.bind(l.elseJump)
		l.elseJump = -1
		e.setHeight(l.height, 0)
	case wasm.OpEnd:
		e.end(true)
	case wasm.OpBr:
		l, err := e.labelAt(in.A)
		if err != nil {
			return err
		}
		e.flush(0)
		e.branchTo(l)
		e.live = false
	case wasm.OpBrIf:
		l, err := e.labelAt(in.A)
		if err != nil {
			return err
		}
		br := e.popBranch()
		switch src := len(e.stack); {
		case l.isLoop && src == l.height:
			br.imm = uint64(l.startPC)
			e.emit(br)
		case !l.isLoop && src-l.arity == l.height:
			br.imm = uint64(int64(l.pending))
			l.pending = e.emit(br)
			l.endLive = true
		default:
			// The taken path has values to move: branch around it.
			br.op = ops[br.op].inv
			skip := e.emit(br)
			e.branchTo(l)
			e.code.ins[skip].imm = uint64(e.pc())
		}
	case wasm.OpBrTable:
		idx := e.popCond()
		tid := len(e.code.tables)
		e.code.tables = append(e.code.tables, nil)
		e.emit(tin{op: tBrTable, a: idx, imm: uint64(tid)})
		// One stub per entry does that target's moves.
		entries := make([]uint32, 0, len(in.Table)+1)
		for i := 0; i <= len(in.Table); i++ {
			depth := in.A
			if i < len(in.Table) {
				depth = uint64(in.Table[i])
			}
			l, err := e.labelAt(depth)
			if err != nil {
				return err
			}
			entries = append(entries, uint32(e.pc()))
			e.branchTo(l)
		}
		e.code.tables[tid] = entries
		e.live = false
	case wasm.OpReturn:
		e.ret()
		e.live = false
	case wasm.OpCall:
		ft, err := e.m.FuncTypeAt(uint32(in.A))
		if err != nil {
			return err
		}
		e.call(tCall, in.A, ft, n-len(ft.Params))
	case wasm.OpCallIndirect:
		ft := e.m.Types[in.A]
		e.call(tCallIndirect, in.A, ft, n-len(ft.Params)-1) // the table index sits on top of the arguments
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	e.lastDef = -1
	e.epoch++
	return nil
}
