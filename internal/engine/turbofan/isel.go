package turbofan

import "wasmdb/internal/wasm"

// The optimizing compiler's peepholes. Their rewrites need to know that a
// register is dead afterwards, which is exactly what dead-code elimination's
// backward removal walk tracks (opt.go), so that walk calls peephole at every
// surviving instruction of the last round and they cost no liveness analysis
// of their own. The forms that need forward facts — a move's destination read
// as its source, multiply strength reduction, indexed addressing — are chosen
// by value numbering (vn.go), which runs just before.

// peephole applies, at position ii of a block during DCE's backward removal
// walk, the rewrites that need liveness; live holds the registers live after
// ins[ii].
//
// Destination forwarding: `op x ← …; move l ← x` with x dead afterwards
// becomes `op l ← …`. The emitter forwards a local.set or local.tee that
// directly follows the producing instruction; this catches the moves that
// value numbering and the block-end flushes leave behind.
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
