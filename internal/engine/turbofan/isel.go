package turbofan

import (
	"math"
	"math/bits"

	"wasmdb/internal/wasm"
)

// Instruction selection: the back end of the optimizing compiler. The emitter
// has already chosen every form it can see from one instruction and the
// abstract stack; this pass runs once, in the last optimization round, and
// adds the forms that need dataflow facts — a constant that reached its use
// through a local or a move past a control instruction, where the emitter
// forgets it, an address computed several instructions before the load. It
// has two halves:
//
//   - selectInstructions, a forward pass over every block before dead-code
//     elimination. It only rewrites *uses* — a use of a move's destination
//     reads its source, a constant operand becomes an immediate, a shifted
//     or summed address moves into the load — so the instructions that
//     computed those operands become dead and the round's DCE removes them.
//   - peephole, called by DCE's removal walk at every surviving instruction.
//     Its rewrites need to know that a register is dead afterwards, which is
//     exactly what that walk tracks, so they cost no liveness analysis of
//     their own.

// selector is the forward pass's state for one block. Facts are block-local
// and kept as "which instruction of this block last wrote the register":
// defAt[r] is one more than that instruction's position in a numbering that
// runs across blocks, so entries left by earlier blocks compare as stale
// without being reset.
type selector struct {
	ins   []tin
	base  int32
	defAt []int32
}

// selectInstructions runs the forward pass over every block.
func (o *optimizer) selectInstructions() {
	s := selector{defAt: make([]int32, o.nRegs)}
	for bi := range o.g.blocks {
		s.ins = o.g.blocks[bi].ins
		for ii := range s.ins {
			s.visit(ii)
		}
		s.base += int32(len(s.ins))
	}
}

// def returns the position in the block of the instruction that last wrote r,
// or -1 when r still holds its value from block entry.
func (s *selector) def(r int32) int {
	return int(s.defAt[r] - s.base - 1)
}

// stable reports whether r still holds the value it had when the instruction
// at position at executed, i.e. nothing at or after it has written r.
func (s *selector) stable(r int32, at int) bool {
	return s.def(r) < at
}

// constOf returns the constant r holds, if an instruction of this block put
// one there.
func (s *selector) constOf(r int32) (uint64, bool) {
	if i := s.def(r); i >= 0 && ops[s.ins[i].op].kind == kindConst {
		return s.ins[i].imm, true
	}
	return 0, false
}

// resolve looks through a move of this block whose source is still intact.
func (s *selector) resolve(r int32) int32 {
	if i := s.def(r); i >= 0 && s.ins[i].op == tMove && s.stable(s.ins[i].a, i) {
		return s.ins[i].a
	}
	return r
}

func (s *selector) visit(ii int) {
	t := &s.ins[ii]
	if t.op == tNop {
		return
	}
	renameUses(t, s.resolve)
	switch ops[t.op].kind {
	case kindBin:
		s.selectBin(t)
		reduceMul(t)
	case kindBinImm:
		reduceMul(t)
	case kindBrCmp:
		s.selectBrCmp(t)
	case kindLoad:
		s.selectLoad(t)
	case kindSelect:
		// A constant for the false case travels in b, zero-extended from 32
		// bits (`CASE … ELSE 0`, a clamped index).
		if c, ok := s.constOf(t.b); ok && c <= math.MaxUint32 {
			t.op, t.b = tSelectImm, int32(uint32(c))
		}
	}
	if t.op == tMove && t.d == t.a {
		*t = tin{op: tNop}
		return
	}
	regDefs(t, func(r int32) { s.defAt[r] = s.base + int32(ii) + 1 })
}

// selectBin gives an integer operation or comparison with one constant
// operand its immediate form (immForm), which the emitter could not when the
// constant only became known through propagation.
func (s *selector) selectBin(t *tin) {
	c, ok := s.constOf(t.b)
	left := !ok
	if left {
		if c, ok = s.constOf(t.a); !ok {
			return
		}
	}
	form, imm, ok := immForm(t.op, c, left)
	if !ok {
		return
	}
	if left {
		t.a = t.b
	}
	t.op, t.b, t.imm = form, 0, imm
}

// reduceMul turns a multiplication by one into a move and by a power of two
// into a shift.
func reduceMul(t *tin) {
	shl := uint16(tI64ShlImm)
	switch t.op {
	case tI32MulImm:
		shl = tI32ShlImm
	case tI64MulImm:
	default:
		return
	}
	switch {
	case t.imm == 1:
		*t = tin{op: tMove, d: t.d, a: t.a}
	case bits.OnesCount64(t.imm) == 1:
		t.op, t.imm = shl, uint64(bits.TrailingZeros64(t.imm))
	}
}

// selectBrCmp gives a fused integer compare-and-branch with a constant
// operand its immediate form. The branch target occupies imm, so the constant
// travels in b and must fit an int32 (every i32 constant does; an i64
// constant that does not keeps the register form).
func (s *selector) selectBrCmp(t *tin) {
	if ops[t.op].imm == 0 {
		return
	}
	op, a := t.op, t.a
	c, ok := s.constOf(t.b)
	if !ok {
		if c, ok = s.constOf(t.a); !ok {
			return
		}
		op, a = ops[t.op].swap, t.b
	}
	if b, ok := brImmOperand(op >= tBrI64Eq, c); ok {
		t.op, t.a, t.b = ops[op].imm, a, b
	}
}

// selectLoad moves the address computation into the load when the address
// register was produced, in this block, by a constant shift (a column index
// scaled to the element size) or by an addition of two registers, and the
// inputs of that computation are still intact. The fused load wraps the index
// arithmetic at 32 bits like the instruction it absorbs and then bounds-checks
// the same effective address, so it traps exactly when the pair did.
func (s *selector) selectLoad(t *tin) {
	i := s.def(t.a)
	if i < 0 {
		return
	}
	switch d := &s.ins[i]; {
	case d.op == tI32ShlImm && s.stable(d.a, i):
		t.op, t.a, t.b = ops[t.op].scaled, d.a, int32(d.imm)
	case d.op == uint16(wasm.OpI32Add) && s.stable(d.a, i) && s.stable(d.b, i):
		t.op, t.a, t.b = ops[t.op].indexed, d.a, d.b
	}
}

// peephole applies, at position ii of a block during DCE's backward removal
// walk, the rewrites that need liveness; live holds the registers live after
// ins[ii].
//
// Destination forwarding: `op x ← …; move l ← x` with x dead afterwards
// becomes `op l ← …`. The emitter forwards a local.set or local.tee that
// directly follows the producing instruction; this catches the moves that
// selection and the block-end flushes leave behind.
//
// Read-modify-write: `i64.load x ← [a+off]; i64.add x ← x, y; i64.store
// [a+off] ← x` with x dead afterwards — the update of an aggregate slot —
// becomes one `i64.add@mem [a+off] += y`. Load and store touch the same eight
// bytes, so the fused instruction traps exactly when the load did.
//
// Compare-and-branch: `cmp@imm x ← a, c; br.nez x` (or br.eqz) with x dead
// afterwards becomes `br.cmp@imm a, c` (or its inverse). The emitter fuses a
// comparison that directly feeds a branch; this catches the range tests value
// numbering (vn.go) makes of a conjunction.
func (c *Code) peephole(ins []tin, ii int, live liveSet) {
	t := &ins[ii]
	pi := prev(ins, ii)
	if pi < 0 {
		return
	}
	p := &ins[pi]
	switch {
	case t.op == tMove && !live.has(t.a) && p.d == t.a:
		switch ops[p.op].kind {
		case kindBin, kindBinImm, kindUn, kindConst, kindMove, kindLoad, kindLoadScaled,
			kindLoadIndexed, kindSelect, kindSelectImm, kindGlobalGet:
			p.d = t.d
			*t = tin{op: tNop}
		}
	case t.op == uint16(wasm.OpI64Store) && !live.has(t.b) && t.a != t.b && p.d == t.b:
		x := t.b
		fused := tin{op: tI64AddMem, a: t.a, imm: t.imm}
		switch {
		case p.op == uint16(wasm.OpI64Add) && p.a == x && p.b != x:
			fused.b = p.b
		case p.op == uint16(wasm.OpI64Add) && p.b == x && p.a != x:
			fused.b = p.a
		case p.op == tI64AddImm && p.a == x && int64(p.imm) == int64(int32(p.imm)):
			fused.op, fused.b = tI64AddMemImm, int32(p.imm)
		default:
			return
		}
		// The load sits before the add, possibly behind pure instructions
		// that computed the addend (or the constant that became the add's
		// immediate, which this walk has yet to remove). Dropping the load
		// leaves x unwritten and moves the memory read behind them, which is
		// unobservable only if they neither read nor write x and leave the
		// address alone.
		li := prev(ins, pi)
		for li >= 0 && pure(ins[li].op) && ins[li].d != x && ins[li].d != t.a && !c.reads(&ins[li], x) {
			li = prev(ins, li)
		}
		if li < 0 {
			return
		}
		if l := &ins[li]; l.op == uint16(wasm.OpI64Load) && l.d == x && l.a == t.a && l.imm == t.imm {
			*l, *p, *t = tin{op: tNop}, tin{op: tNop}, fused
		}
	case (t.op == tJumpIfNot || t.op == tJumpIfZero) && !live.has(t.a):
		// The comparison may sit behind the moves that flushed the stack
		// for the branch; they must leave its operand alone.
		for pi >= 0 && pure(ins[pi].op) && ins[pi].d != t.a && !c.reads(&ins[pi], t.a) {
			pi = prev(ins, pi)
		}
		if pi < 0 {
			return
		}
		p := &ins[pi]
		b, fits := brImmOperand(p.op >= tI64EqImm, p.imm)
		if p.d != t.a || ops[p.op].kind != kindBinImm || ops[p.op].br == 0 || !fits {
			return
		}
		for k := pi + 1; k < ii; k++ {
			if ins[k].op != tNop && ins[k].d == p.a {
				return
			}
		}
		br := ops[p.op].br
		if t.op == tJumpIfZero {
			br = ops[br].inv
		}
		*t = tin{op: br, a: p.a, b: b, imm: t.imm}
		*p = tin{op: tNop}
	}
}

// prev returns the position of the last instruction before ii that is not a
// nop, or -1.
func prev(ins []tin, ii int) int {
	for ii--; ii >= 0 && ins[ii].op == tNop; ii-- {
	}
	return ii
}
