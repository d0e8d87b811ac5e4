package turbofan

import (
	"math"
	"math/bits"
	"sync"

	"wasmdb/internal/wasm"
)

// Value numbering: the optimizing compiler's one forward pass, its
// redundancy elimination (what TurboFan calls value numbering and load
// elimination) and the instruction selection that needs forward facts. It
// runs once, before the last dead-code elimination, one basic block at a
// time:
//
//   - Selection first. The emitter has already chosen every form one
//     instruction and the abstract stack justify — immediates, scaled loads,
//     compare-and-branch; this pass adds the three that need to know what a
//     register holds. A move's destination becomes a copy of its source's
//     value: later reads of it read the value's holder while that holds it.
//     A multiplication by one becomes a move, by a power of two a shift. A
//     load whose address is an i32.add of two values whose holders are
//     intact takes the indexed form. The instructions that computed what
//     these forms no longer read are left for dead-code elimination.
//   - Pure operations, constants, loads and global.get get a value number
//     from what they compute: the op and the value numbers of their operands,
//     or, for a load, its addressing mode, its behaviour class (the load
//     forms table shares: i32.load8_u and i64.load8_u are one), its address
//     operands and its offset. An instruction whose value a register already
//     holds becomes a move from that register, and later reads of the move's
//     destination read the register instead, so dead-code elimination
//     removes the move as well.
//   - A load's key carries the memory generation, which every store,
//     add@mem, call, call_indirect and memory.grow advances, and a
//     global.get's the call generation, which every call advances;
//     global.set g replaces g's entry by the value it wrote. Operations that
//     can trap (div, rem, trunc) and memory.size are not numbered.
//   - The emitter reuses each operand-stack register, so the register that
//     first held a value is often overwritten before the value is needed
//     again. The instruction that defined it is then given another register
//     — the destination of the instruction being removed, when nothing
//     between the two touches it, else a fresh one behind the stack — and
//     the reads of the old register up to its overwrite are renamed. A
//     call's arguments and results sit in a fixed window, so a value a call
//     produced, or one a call reads there, keeps its register; the return,
//     which reads the result registers, ends its block.
//   - A conjunction of a signed lower and upper bound on one value, `x ≥ lo
//     & x ≤ hi` (strict bounds made inclusive where that cannot overflow),
//     becomes the unsigned range test `x − lo ≤u hi − lo`: one add and one
//     compare instead of two compares and an and. It also applies when the
//     two bounds meet along the left-deep `and` chain a conjunction compiles
//     to, `(a & lo-test) & hi-test`. A peephole of isel.go then fuses a
//     test whose result only a br.eqz or br.nez reads into the branch.
//
// The tables are dense slices reused from block to block; a stamp per block
// makes the entries of earlier blocks stale without clearing them.

// vnKey is what a numbered instruction computes. gen is the memory generation
// of a load, the call generation of a global.get.
type vnKey struct {
	op   uint16
	gen  uint32
	a, b int32
	imm  uint64
}

// vnValue is one value number of the current block. Its holder is register
// reg, written by the instruction at position at of the block's output (-1:
// the value was there at block entry) and overwritten at position killed
// (-1: reg still holds it).
type vnValue struct {
	key    vnKey
	reg    int32
	at     int32
	killed int32
}

// vnReg is a register's value number, current while stamp is the block's;
// copy marks the destination of a move, whose reads go to the value's holder.
type vnReg struct {
	v     int32
	stamp uint32
	copy  bool
}

type vnSlot struct {
	key   vnKey
	v     int32
	stamp uint32
}

type numberer struct {
	code     *Code
	nLocals  int32
	base     int32 // the first register behind the stack
	fresh    int32 // registers behind the stack the current block uses
	maxFresh int32
	stamp    uint32
	tmp      int32 // the range tests' scratch register in this block, or -1
	copies   bool  // the block has a copy
	regs     []vnReg
	vals     []vnValue // vals[0] is no value
	table    []vnSlot  // open addressing, a power of two long
	used     int       // entries of table made in the current block
	out      []tin
	memGen   uint32
	callGen  uint32
}

// numberers keeps the pass's tables for the next compilation: their stamps
// only grow, so a table from an earlier function holds nothing current.
var numberers = sync.Pool{New: func() any { return new(numberer) }}

// numberValues runs value numbering over every block and grows the frame by
// the registers it added.
func (o *optimizer) numberValues() {
	longest := 0
	for _, b := range o.g.blocks {
		longest = max(longest, len(b.ins))
	}
	s := numberers.Get().(*numberer)
	s.code, s.nLocals, s.base, s.maxFresh = o.code, int32(o.code.NLocals), int32(o.nRegs), 0
	s.regs = grow(s.regs, o.nRegs)
	if n := 1 << bits.Len(uint(2*longest)); len(s.table) < n {
		s.table = make([]vnSlot, n)
	}
	for bi := range o.g.blocks {
		s.block(&o.g.blocks[bi])
	}
	o.code.MaxStack += int(s.maxFresh)
	o.nRegs += int(s.maxFresh)
	s.code = nil
	numberers.Put(s)
}

// grow returns s with length n, keeping its elements.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

func (s *numberer) block(b *block) {
	s.stamp++
	s.vals = append(s.vals[:0], vnValue{})
	s.out = s.out[:0]
	s.fresh = 0
	s.tmp = -1
	s.copies = false
	s.used = 0
	for _, t := range b.ins {
		if t.op != tNop {
			s.visit(t, true)
		}
	}
	if len(s.out) <= cap(b.ins) {
		b.ins = append(b.ins[:0], s.out...)
	} else {
		b.ins = append([]tin(nil), s.out...)
	}
}

// visit selects one instruction's form, numbers it and appends what replaces
// it to the output.
func (s *numberer) visit(t tin, fuse bool) {
	if s.copies {
		renameUses(&t, s.use)
	}
	reduceMul(&t)
	switch {
	case t.op == tMove:
		s.move(t)
		return
	case ops[t.op].kind == kindLoad:
		s.selectIndexed(&t)
	case fuse && t.op == uint16(wasm.OpI32And) && s.fuseRange(t):
		return
	}
	key, keyed := s.keyOf(&t)
	if !keyed {
		s.emit(t, nil, key)
		return
	}
	sl := s.find(key)
	if sl.stamp != s.stamp {
		s.emit(t, sl, key)
		return
	}
	v := sl.v
	if x := s.regs[t.d]; x.stamp == s.stamp && x.v == v {
		return // the destination holds the value already
	}
	h := s.holder(v, t.d)
	switch {
	case h < 0:
		// Nothing holds the value any more: the instruction stays and
		// holds it from here on.
		p := s.put(t)
		s.define(t.d, v, p, false)
		s.vals[v].reg, s.vals[v].at, s.vals[v].killed = t.d, p, -1
	case h != t.d:
		s.define(t.d, v, s.put(tin{op: tMove, d: t.d, a: h}), true)
	}
}

// move makes a move's destination a copy of its source's value: later reads
// of it read the value's holder while that holds it, so dead-code elimination
// removes the move when nothing else needs it. A move to a register that
// holds the value already is dropped.
func (s *numberer) move(t tin) {
	v := s.vn(t.a)
	if x := s.regs[t.d]; x.stamp == s.stamp && x.v == v {
		return
	}
	s.define(t.d, v, s.put(t), true)
}

// selectIndexed moves the address computation into a load when the address
// is an i32.add of two values whose holders are intact: the load takes the
// register-plus-register form, and the add is left for dead-code elimination.
// The fused load wraps the sum at 32 bits like the add and bounds-checks the
// same effective address, so it traps exactly when the pair did.
func (s *numberer) selectIndexed(t *tin) {
	k := s.vals[s.vn(t.a)].key
	if k.op != uint16(wasm.OpI32Add) {
		return
	}
	a, b := &s.vals[k.a], &s.vals[k.b]
	if a.killed < 0 && b.killed < 0 {
		t.op, t.a, t.b = ops[t.op].indexed, a.reg, b.reg
	}
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

func (s *numberer) put(t tin) int32 {
	s.out = append(s.out, t)
	return int32(len(s.out) - 1)
}

// emit appends an instruction that computes something new, applies its kills
// and numbers what it defines: the value of key, entered in the empty slot sl,
// or, when sl is nil, values nothing else can match.
func (s *numberer) emit(t tin, sl *vnSlot, key vnKey) {
	p := s.put(t)
	switch ops[t.op].kind {
	case kindStore, kindMemOp, kindMemOpImm, kindMemoryGrow:
		s.memGen++
	case kindCall, kindCallIndirect:
		s.memGen++
		s.callGen++
	case kindGlobalSet:
		// The global now holds what the set wrote: its entry is replaced.
		k := vnKey{op: tGlobalGet, gen: s.callGen, imm: t.imm}
		s.insert(s.find(k), k, s.vn(t.a))
	}
	if sl != nil {
		v := s.newValue(key, t.d, p)
		s.define(t.d, v, p, false)
		s.insert(sl, key, v)
		return
	}
	regDefs(&t, func(r int32) {
		s.define(r, s.newValue(vnKey{}, r, p), p, false)
	})
}

// keyOf returns what t computes, if it is numbered.
func (s *numberer) keyOf(t *tin) (vnKey, bool) {
	info := &ops[t.op]
	k := vnKey{op: t.op, imm: t.imm}
	switch info.kind {
	case kindBin:
		k.a, k.b = s.vn(t.a), s.vn(t.b)
		if info.swap == t.op && k.b < k.a {
			k.a, k.b = k.b, k.a
		}
	case kindBinImm, kindUn:
		k.a = s.vn(t.a)
	case kindConst:
	case kindSelect:
		k.a, k.b, k.imm = s.vn(t.a), s.vn(t.b), uint64(s.vn(int32(t.imm)))
	case kindSelectImm:
		k.a, k.b, k.imm = s.vn(t.a), t.b, uint64(s.vn(int32(t.imm)))
	case kindGlobalGet:
		k.gen = s.callGen
	case kindLoad:
		// b = 0, which no value number is, marks the plain form.
		k.op, k.gen, k.a = info.indexed, s.memGen, s.vn(t.a)
	case kindLoadScaled:
		k.gen, k.a, k.b = s.memGen, s.vn(t.a), t.b
	case kindLoadIndexed:
		k.gen, k.a, k.b = s.memGen, s.vn(t.a), s.vn(t.b)
		if k.b < k.a {
			k.a, k.b = k.b, k.a
		}
	default:
		return k, false
	}
	return k, !info.traps || info.kind.memory()
}

func (s *numberer) newValue(key vnKey, r, at int32) int32 {
	s.vals = append(s.vals, vnValue{key: key, reg: r, at: at, killed: -1})
	return int32(len(s.vals) - 1)
}

// vn returns the value number register r holds, giving a value it has held
// since block entry a number of its own.
func (s *numberer) vn(r int32) int32 {
	if x := s.regs[r]; x.stamp == s.stamp {
		return x.v
	}
	v := s.newValue(vnKey{}, r, -1)
	s.regs[r] = vnReg{v: v, stamp: s.stamp}
	return v
}

// define records that the instruction at position p writes value v to r.
func (s *numberer) define(r, v, p int32, copy bool) {
	if x := s.regs[r]; x.stamp == s.stamp && x.v != v {
		if old := &s.vals[x.v]; old.reg == r && old.killed < 0 {
			old.killed = p
		}
	}
	s.regs[r] = vnReg{v: v, stamp: s.stamp, copy: copy}
	s.copies = s.copies || copy
}

// use is the renaming of reads: a destination of a move reads as the value's
// holder while that holds it.
func (s *numberer) use(r int32) int32 {
	if x := s.regs[r]; x.stamp == s.stamp && x.copy {
		if val := &s.vals[x.v]; val.killed < 0 {
			return val.reg
		}
	}
	return r
}

// holder returns a register that holds value v at the end of the output, or
// -1. When its holder has been overwritten, the instruction that defined it
// is given another register: want, the destination of the instruction about
// to be replaced, if nothing since the definition touches it, else a fresh
// one; the reads of the old holder up to its overwrite are renamed. A call's
// window is never renamed: neither its results nor its arguments.
func (s *numberer) holder(v, want int32) int32 {
	val := &s.vals[v]
	if val.killed < 0 {
		return val.reg
	}
	if val.at < 0 || ops[s.out[val.at].op].kind.call() {
		return -1 // there before the block, or in a call's result window
	}
	h := val.reg
	for p := val.at + 1; p <= val.killed; p++ {
		if ops[s.out[p].op].kind.call() && s.code.reads(&s.out[p], h) {
			return -1
		}
	}
	r := want
	if r < 0 || r == h || s.touched(r, val.at+1) {
		r = s.freshReg()
	} else if x := s.regs[r]; x.stamp == s.stamp {
		// want is overwritten earlier now, at the definition.
		if old := &s.vals[x.v]; old.reg == r && old.killed < 0 {
			old.killed = val.at
		}
	}
	s.out[val.at].d = r
	for p := val.at + 1; p <= val.killed; p++ {
		renameUses(&s.out[p], func(u int32) int32 {
			if u == h {
				return r
			}
			return u
		})
	}
	val.reg, val.killed = r, -1
	s.regs[r] = vnReg{v: v, stamp: s.stamp}
	return r
}

// freshReg returns a register behind the stack that nothing in the block has
// used.
func (s *numberer) freshReg() int32 {
	r := s.base + s.fresh
	s.fresh++
	s.maxFresh = max(s.maxFresh, s.fresh)
	if int(r) >= len(s.regs) {
		s.regs = grow(s.regs, int(r)+1)
	}
	return r
}

// touched reports whether an instruction of the output from position from on
// reads or writes r.
func (s *numberer) touched(r, from int32) bool {
	for p := from; int(p) < len(s.out); p++ {
		t := &s.out[p]
		hit := s.code.reads(t, r)
		regDefs(t, func(d int32) { hit = hit || d == r })
		if hit {
			return true
		}
	}
	return false
}

func (k vnKey) hash() uint64 {
	h := (uint64(k.op)<<32 | uint64(k.gen)) * 0x9E3779B97F4A7C15
	h ^= (uint64(uint32(k.a))<<32 | uint64(uint32(k.b))) * 0xC2B2AE3D27D4EB4F
	h ^= k.imm * 0x165667B19E3779F9
	return h ^ h>>32
}

// find returns the slot of key: its entry, or the empty slot to insert it in.
func (s *numberer) find(k vnKey) *vnSlot {
	mask := uint64(len(s.table) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		if sl := &s.table[i]; sl.stamp != s.stamp || sl.key == k {
			return sl
		}
	}
}

// insert makes sl, found for k, map k to value v, growing the table when it
// is half full.
func (s *numberer) insert(sl *vnSlot, k vnKey, v int32) {
	if sl.stamp != s.stamp {
		s.used++
	}
	*sl = vnSlot{key: k, v: v, stamp: s.stamp}
	if 2*s.used < len(s.table) {
		return
	}
	old := s.table
	s.table = make([]vnSlot, 2*len(old))
	for _, e := range old {
		if e.stamp == s.stamp {
			*s.find(e.key) = e
		}
	}
}

// fuseRange replaces `d ← lo-test & hi-test` on one value by the unsigned
// range test, and `d ← (a & lo-test) & hi-test` by `d ← a & range-test`,
// reporting whether it did. The tests must be operand-stack values, which the
// conjunction consumes; their instructions are then dead.
func (s *numberer) fuseRange(t tin) bool {
	if t.a < s.nLocals || t.b < s.nLocals {
		return false
	}
	va, vb := s.vn(t.a), s.vn(t.b)
	if x, lo, hi, wide, ok := s.rangeOf(va, vb); ok {
		hx := s.holder(x, -1)
		if hx < 0 {
			return false
		}
		s.rangeTest(t.d, hx, lo, hi, wide)
		return true
	}
	for _, pd := range [2][2]int32{{va, vb}, {vb, va}} {
		p := &s.vals[pd[0]]
		if p.key.op != uint16(wasm.OpI32And) {
			continue
		}
		for _, ac := range [2][2]int32{{p.key.a, p.key.b}, {p.key.b, p.key.a}} {
			x, lo, hi, wide, ok := s.rangeOf(ac[1], pd[1])
			if !ok || s.vals[ac[1]].reg < s.nLocals {
				continue
			}
			hx := s.holder(x, -1)
			if hx < 0 {
				return false
			}
			ha := s.holder(ac[0], -1)
			if ha < 0 {
				return false
			}
			if s.tmp < 0 {
				s.tmp = s.freshReg()
			}
			s.rangeTest(s.tmp, hx, lo, hi, wide)
			s.visit(tin{op: uint16(wasm.OpI32And), d: t.d, a: ha, b: s.tmp}, false)
			return true
		}
	}
	return false
}

// rangeTest emits d ← x − lo ≤u hi − lo.
func (s *numberer) rangeTest(d, x int32, lo, hi int64, wide bool) {
	add, le, mask := tI32AddImm, tI32LeUImm, uint64(math.MaxUint32)
	if wide {
		add, le, mask = tI64AddImm, tI64LeUImm, math.MaxUint64
	}
	s.visit(tin{op: add, d: d, a: x, imm: -uint64(lo) & mask}, false)
	s.visit(tin{op: le, d: d, a: d, imm: (uint64(hi) - uint64(lo)) & mask}, false)
}

// rangeOf returns the value and the inclusive bounds when values a and b are
// a signed lower and upper bound test of one value, of one width, with lo ≤
// hi.
func (s *numberer) rangeOf(a, b int32) (x int32, lo, hi int64, wide, ok bool) {
	xa, ca, lowerA, wideA, okA := s.bound(a)
	xb, cb, lowerB, wideB, okB := s.bound(b)
	if !okA || !okB || xa != xb || wideA != wideB || lowerA == lowerB {
		return 0, 0, 0, false, false
	}
	if lo, hi = ca, cb; !lowerA {
		lo, hi = cb, ca
	}
	return xa, lo, hi, wideA, lo <= hi
}

// bound reports whether value v is a signed comparison of value x with a
// constant that bounds x from below (x ≥ c) or above (x ≤ c), with c made
// inclusive. A strict bound at the limit of its type has no inclusive form.
func (s *numberer) bound(v int32) (x int32, c int64, lower, wide, ok bool) {
	k := s.vals[v].key
	c32 := int64(int32(uint32(k.imm)))
	c64 := int64(k.imm)
	switch k.op {
	case tI32GeSImm:
		return k.a, c32, true, false, true
	case tI32GtSImm:
		return k.a, c32 + 1, true, false, c32 < math.MaxInt32
	case tI32LeSImm:
		return k.a, c32, false, false, true
	case tI32LtSImm:
		return k.a, c32 - 1, false, false, c32 > math.MinInt32
	case tI64GeSImm:
		return k.a, c64, true, true, true
	case tI64GtSImm:
		return k.a, c64 + 1, true, true, c64 < math.MaxInt64
	case tI64LeSImm:
		return k.a, c64, false, true, true
	case tI64LtSImm:
		return k.a, c64 - 1, false, true, c64 > math.MinInt64
	}
	return 0, 0, false, false, false
}
