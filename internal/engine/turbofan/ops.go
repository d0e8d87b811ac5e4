// Package turbofan is the engine's code generator: two compilers, one
// machine. Both tiers of the paper's architecture (§2.2) — V8's Liftoff and
// TurboFan — compile validated WebAssembly for the register machine of
// run.go, whose instruction set one table (ops, below) describes, and differ
// only in how hard they try:
//
//   - the baseline compiler (CompileBaseline, the engine's TierLiftoff) is
//     the single-pass emitter of emit.go alone: an abstract value stack whose
//     slots are register, local or constant, so local.get and the constants
//     cost no instruction, a constant operand selects an immediate form,
//     constant operands fold, a comparison fuses into the branch it feeds, a
//     local.set retargets the instruction before it — no IR, no liveness, no
//     second pass;
//   - the optimizing compiler (Compile, TierTurbofan) starts from the same
//     emitter's output, splits it into basic blocks and adds what needs
//     dataflow facts: one forward pass per block (vn.go) reads moves through,
//     reduces multiplications, selects indexed addressing, computes each
//     block's loads and expressions once and fuses two-sided range tests
//     into one unsigned compare; global liveness-based dead-code elimination
//     (opt.go) removes what that left dead and applies the peepholes that
//     need liveness (isel.go: destination forwarding, read-modify-write,
//     compare-and-branch); linearization rotates small loop headers into
//     bottom-tested loops.
//
// The ops table gives every instruction's operand shape and its related
// forms; it drives the emitter's form selection, the dataflow passes, the
// disassembler and the tests that keep the dispatch switch in run.go dense
// and complete. The optimizing compiler costs several passes over a graph —
// an order of magnitude more than the baseline's one — and yields faster
// code, reproducing the tier asymmetry the paper's architecture delegates to
// V8. (The package keeps the name of its first tenant.)
package turbofan

import (
	"math"
	"math/bits"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// tin is a three-address register instruction. Value operations reuse the
// wasm.Opcode numbering (d ← a op b); the extended opcodes continue directly
// behind the last wasm opcode so the whole space stays dense. Which fields
// hold registers and which hold literals follows from the op's shape
// (opInfo.kind).
type tin struct {
	op      uint16
	d, a, b int32
	imm     uint64
}

// Extended opcodes. The comparison families keep the order of the wasm
// comparison opcodes (eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u for
// integers, eq ne lt gt le ge for floats); the relations between families
// (fused, inverted, mirrored, immediate) are recorded in the ops table.
const (
	tMove         = uint16(wasm.OpI64Extend32S) + 1 + iota // d ← a
	tJump                                                  // goto imm
	tJumpIfZero                                            // if a == 0 goto imm
	tJumpIfNot                                             // if a != 0 goto imm
	tBrTable                                               // switch a over tables[imm]
	tRet                                                   // return; results in regs [nLocals, nLocals+nResults)
	tCall                                                  // call imm; args at regs [a, a+np), results at [a, a+nr); b = np<<16|nr
	tCallIndirect                                          // like tCall; imm = type index; table index in reg a+np
	tSelect                                                // d ← (regs[imm] != 0) ? a : b
	tSelectImm                                             // d ← (regs[imm] != 0) ? a : uint32 literal b
	tUnreachable                                           // trap
	tGlobalGet                                             // d ← globals[imm]
	tGlobalSet                                             // globals[imm] ← a
	tNop                                                   // removed at linearization
	tFuel                                                  // charge one unit of fuel (exit of a rotated loop)

	// Fused compare-and-branch, register operands: if a cmp b goto imm.
	tBrI32Eq
	tBrI32Ne
	tBrI32LtS
	tBrI32LtU
	tBrI32GtS
	tBrI32GtU
	tBrI32LeS
	tBrI32LeU
	tBrI32GeS
	tBrI32GeU
	tBrI64Eq
	tBrI64Ne
	tBrI64LtS
	tBrI64LtU
	tBrI64GtS
	tBrI64GtU
	tBrI64LeS
	tBrI64LeU
	tBrI64GeS
	tBrI64GeU
	tBrF32Eq
	tBrF32Ne
	tBrF32Lt
	tBrF32Gt
	tBrF32Le
	tBrF32Ge
	tBrF64Eq
	tBrF64Ne
	tBrF64Lt
	tBrF64Gt
	tBrF64Le
	tBrF64Ge
	// Float orderings are not invertible by another ordering (NaN compares
	// false both ways), so their branch-if-not forms are ops of their own.
	tBrF32NotLt
	tBrF32NotGt
	tBrF32NotLe
	tBrF32NotGe
	tBrF64NotLt
	tBrF64NotGt
	tBrF64NotLe
	tBrF64NotGe

	// Fused compare-and-branch against a constant: if a cmp int32(b) goto imm
	// (i64 forms sign-extend b).
	tBrI32EqImm
	tBrI32NeImm
	tBrI32LtSImm
	tBrI32LtUImm
	tBrI32GtSImm
	tBrI32GtUImm
	tBrI32LeSImm
	tBrI32LeUImm
	tBrI32GeSImm
	tBrI32GeUImm
	tBrI64EqImm
	tBrI64NeImm
	tBrI64LtSImm
	tBrI64LtUImm
	tBrI64GtSImm
	tBrI64GtUImm
	tBrI64LeSImm
	tBrI64LeUImm
	tBrI64GeSImm
	tBrI64GeUImm

	// Comparison against a constant: d ← a cmp imm.
	tI32EqImm
	tI32NeImm
	tI32LtSImm
	tI32LtUImm
	tI32GtSImm
	tI32GtUImm
	tI32LeSImm
	tI32LeUImm
	tI32GeSImm
	tI32GeUImm
	tI64EqImm
	tI64NeImm
	tI64LtSImm
	tI64LtUImm
	tI64GtSImm
	tI64GtUImm
	tI64LeSImm
	tI64LeUImm
	tI64GeSImm
	tI64GeUImm

	// Arithmetic with a constant right-hand operand: d ← a op imm; rsub is
	// the reversed subtraction d ← imm − a (a constant minuend).
	tI32AddImm
	tI32MulImm
	tI32AndImm
	tI32OrImm
	tI32XorImm
	tI32ShlImm
	tI32ShrSImm
	tI32ShrUImm
	tI32RsubImm
	tI64AddImm
	tI64MulImm
	tI64AndImm
	tI64OrImm
	tI64XorImm
	tI64ShlImm
	tI64ShrSImm
	tI64ShrUImm
	tI64RsubImm

	// Loads with an addressing mode. The nine widths are the distinct load
	// behaviours on zero-extended registers (f32.load and i64.load32_u are
	// i32.load, f64.load is i64.load, the i64 unsigned narrow loads are the
	// i32 ones). Scaled: d ← mem[uint32(a)<<b + imm], b a literal shift;
	// indexed: d ← mem[uint32(a)+uint32(b) + imm].
	tLoad32Scaled
	tLoad64Scaled
	tLoad8S32Scaled
	tLoad8UScaled
	tLoad16S32Scaled
	tLoad16UScaled
	tLoad8S64Scaled
	tLoad16S64Scaled
	tLoad32S64Scaled
	tLoad32Indexed
	tLoad64Indexed
	tLoad8S32Indexed
	tLoad8UIndexed
	tLoad16S32Indexed
	tLoad16UIndexed
	tLoad8S64Indexed
	tLoad16S64Indexed
	tLoad32S64Indexed

	// Read-modify-write accumulation: mem[a+imm] += b (i64), the update of an
	// aggregate slot; the Imm form adds the literal int32 b.
	tI64AddMem
	tI64AddMemImm

	numOps
)

// opKind is an instruction's operand shape: which of d, a, b and imm are
// registers read, registers written, literals or a branch target. It is what
// the dataflow passes and the disassembler know about an instruction.
type opKind uint8

const (
	kindNone         opKind = iota // not an instruction
	kindBin                        // d ← a op b
	kindBinImm                     // d ← a op imm
	kindUn                         // d ← op a
	kindConst                      // d ← imm
	kindMove                       // d ← a
	kindLoad                       // d ← mem[a + imm]
	kindLoadScaled                 // d ← mem[a<<b + imm]
	kindLoadIndexed                // d ← mem[a + b + imm]
	kindStore                      // mem[a + imm] ← b
	kindMemOp                      // mem[a + imm] op= b
	kindMemOpImm                   // mem[a + imm] op= literal b
	kindSelect                     // d ← regs[imm] ? a : b
	kindSelectImm                  // d ← regs[imm] ? a : literal b
	kindGlobalGet                  // d ← globals[imm]
	kindGlobalSet                  // globals[imm] ← a
	kindMemorySize                 // d ← pages
	kindMemoryGrow                 // d ← grow(a)
	kindJump                       // goto imm
	kindBrIf                       // if cond(a) goto imm
	kindBrCmp                      // if a cmp b goto imm
	kindBrCmpImm                   // if a cmp literal b goto imm
	kindBrTable                    // goto tables[imm][a]
	kindRet                        // return
	kindTrap                       // unreachable
	kindCall                       // regs[a..] ← call imm (regs[a..])
	kindCallIndirect               // like kindCall, table index behind the arguments
	kindNop                        // nop, fuel
)

// memory reports whether the shape accesses linear memory: the loads, the
// stores and the read-modify-write updates.
func (k opKind) memory() bool {
	switch k {
	case kindLoad, kindLoadScaled, kindLoadIndexed, kindStore, kindMemOp, kindMemOpImm:
		return true
	}
	return false
}

// call reports whether the shape is a call, whose arguments and results sit
// in a window of registers fixed by the instruction.
func (k opKind) call() bool { return k == kindCall || k == kindCallIndirect }

// opInfo is one row of the instruction table.
type opInfo struct {
	name string
	kind opKind
	// traps marks value operations that can trap; dead-code elimination must
	// keep them even when the result is unused.
	traps bool
	// Related forms, 0 when there is none:
	imm     uint16 // the same operation with a constant right-hand operand
	swap    uint16 // the operation with its operands exchanged: a op b == b swap a
	br      uint16 // comparison → the branch taken when it holds
	inv     uint16 // conditional branch → the branch taken exactly when this one is not
	scaled  uint16 // load → its scaled-index form
	indexed uint16 // load → its register-plus-register form
}

// ops is the instruction table, indexed by opcode.
var ops = buildOps()

// Orders of the comparison families, as offsets from the family's first op.
var (
	intCmpNames   = [10]string{"eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u"}
	intCmpSwap    = [10]uint16{0, 1, 4, 5, 2, 3, 8, 9, 6, 7}
	intCmpInv     = [10]uint16{1, 0, 8, 9, 6, 7, 4, 5, 2, 3}
	floatCmpNames = [6]string{"eq", "ne", "lt", "gt", "le", "ge"}
)

func buildOps() [numOps]opInfo {
	var t [numOps]opInfo

	// Value operations: the shape follows from the wasm stack signature.
	for w := wasm.OpI32Load; w <= wasm.OpI64Extend32S; w++ {
		in, out, ok := w.InOut()
		if !ok {
			continue
		}
		e := opInfo{name: w.String()}
		switch {
		case w <= wasm.OpI64Load32U:
			e.kind, e.traps = kindLoad, true
		case w <= wasm.OpI64Store32:
			e.kind, e.traps = kindStore, true
		case in == 0 && out == 1:
			e.kind = kindConst
		case in == 1 && out == 1:
			e.kind = kindUn
		case in == 2 && out == 1:
			e.kind = kindBin
		}
		t[w] = e
	}
	t[wasm.OpMemorySize] = opInfo{name: "memory.size", kind: kindMemorySize}
	t[wasm.OpMemoryGrow] = opInfo{name: "memory.grow", kind: kindMemoryGrow}
	for _, w := range []wasm.Opcode{
		wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU,
		wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S, wasm.OpI32TruncF64U,
		wasm.OpI64TruncF32S, wasm.OpI64TruncF32U, wasm.OpI64TruncF64S, wasm.OpI64TruncF64U,
	} {
		t[w].traps = true
	}

	for op, e := range map[uint16]opInfo{
		tMove:         {name: "move", kind: kindMove},
		tJump:         {name: "jump", kind: kindJump},
		tJumpIfZero:   {name: "br.eqz", kind: kindBrIf, inv: tJumpIfNot},
		tJumpIfNot:    {name: "br.nez", kind: kindBrIf, inv: tJumpIfZero},
		tBrTable:      {name: "br_table", kind: kindBrTable},
		tRet:          {name: "return", kind: kindRet},
		tCall:         {name: "call", kind: kindCall},
		tCallIndirect: {name: "call_indirect", kind: kindCallIndirect},
		tSelect:       {name: "select", kind: kindSelect},
		tSelectImm:    {name: "select@imm", kind: kindSelectImm},
		tUnreachable:  {name: "unreachable", kind: kindTrap},
		tGlobalGet:    {name: "global.get", kind: kindGlobalGet},
		tGlobalSet:    {name: "global.set", kind: kindGlobalSet},
		tNop:          {name: "nop", kind: kindNop},
		tFuel:         {name: "fuel", kind: kindNop},
		tI64AddMem:    {name: "i64.add@mem", kind: kindMemOp, traps: true},
		tI64AddMemImm: {name: "i64.add@mem@imm", kind: kindMemOpImm, traps: true},
	} {
		t[op] = e
	}

	// Integer comparisons and their fused, immediate and fused-immediate
	// families.
	for _, f := range []struct {
		ty                   string
		cmp                  wasm.Opcode
		br, brImm, cmpImmFam uint16
	}{
		{"i32", wasm.OpI32Eq, tBrI32Eq, tBrI32EqImm, tI32EqImm},
		{"i64", wasm.OpI64Eq, tBrI64Eq, tBrI64EqImm, tI64EqImm},
	} {
		for k := uint16(0); k < 10; k++ {
			name := f.ty + "." + intCmpNames[k]
			cmp := &t[uint16(f.cmp)+k]
			cmp.imm = f.cmpImmFam + k
			cmp.swap = uint16(f.cmp) + intCmpSwap[k]
			cmp.br = f.br + k
			t[f.cmpImmFam+k] = opInfo{name: name + "@imm", kind: kindBinImm, br: f.brImm + k}
			t[f.br+k] = opInfo{name: "br." + name, kind: kindBrCmp,
				imm: f.brImm + k, swap: f.br + intCmpSwap[k], inv: f.br + intCmpInv[k]}
			t[f.brImm+k] = opInfo{name: "br." + name + "@imm", kind: kindBrCmpImm,
				inv: f.brImm + intCmpInv[k]}
		}
	}

	// Float comparisons: eq and ne invert each other, the orderings invert
	// into their branch-if-not forms.
	for _, f := range []struct {
		ty        string
		cmp       wasm.Opcode
		br, brNot uint16
	}{
		{"f32", wasm.OpF32Eq, tBrF32Eq, tBrF32NotLt},
		{"f64", wasm.OpF64Eq, tBrF64Eq, tBrF64NotLt},
	} {
		for k := uint16(0); k < 6; k++ {
			name := f.ty + "." + floatCmpNames[k]
			t[uint16(f.cmp)+k].br = f.br + k
			e := opInfo{name: "br." + name, kind: kindBrCmp}
			if k < 2 {
				e.inv = f.br + (k ^ 1)
			} else {
				e.inv = f.brNot + k - 2
				t[e.inv] = opInfo{name: "br.not." + name, kind: kindBrCmp, inv: f.br + k}
			}
			t[f.br+k] = e
		}
	}

	// Integer arithmetic with a constant operand. Commutative operations are
	// their own mirror; the mirror of a subtraction is rsub, which exists only
	// in immediate form (immForm handles it).
	for _, f := range []struct {
		ty       string
		add, imm uint16
	}{
		{"i32", uint16(wasm.OpI32Add), tI32AddImm},
		{"i64", uint16(wasm.OpI64Add), tI64AddImm},
	} {
		// Offsets from add in the wasm numbering: add sub mul div_s div_u
		// rem_s rem_u and or xor shl shr_s shr_u.
		for i, off := range []uint16{0, 2, 7, 8, 9, 10, 11, 12} {
			bin := &t[f.add+off]
			bin.imm = f.imm + uint16(i)
			if off <= 9 { // add mul and or xor
				bin.swap = f.add + off
			}
			t[bin.imm] = opInfo{name: bin.name + "@imm", kind: kindBinImm}
		}
		t[f.imm+8] = opInfo{name: f.ty + ".rsub@imm", kind: kindBinImm}
	}

	// Addressing modes. Loads that behave identically share a form.
	for i, ws := range [9][]wasm.Opcode{
		{wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U},
		{wasm.OpI64Load, wasm.OpF64Load},
		{wasm.OpI32Load8S},
		{wasm.OpI32Load8U, wasm.OpI64Load8U},
		{wasm.OpI32Load16S},
		{wasm.OpI32Load16U, wasm.OpI64Load16U},
		{wasm.OpI64Load8S},
		{wasm.OpI64Load16S},
		{wasm.OpI64Load32S},
	} {
		sc, ix := tLoad32Scaled+uint16(i), tLoad32Indexed+uint16(i)
		for _, w := range ws {
			t[w].scaled, t[w].indexed = sc, ix
		}
		t[sc] = opInfo{name: t[ws[0]].name + "@scaled", kind: kindLoadScaled, traps: true}
		t[ix] = opInfo{name: t[ws[0]].name + "@indexed", kind: kindLoadIndexed, traps: true}
	}
	return t
}

// is32 reports whether a binary integer operation or comparison works on i32
// operands, whose constants are kept zero-extended.
func is32(op uint16) bool {
	return op >= uint16(wasm.OpI32Eq) && op <= uint16(wasm.OpI32GeU) ||
		op >= uint16(wasm.OpI32Add) && op <= uint16(wasm.OpI32Rotr)
}

// immForm returns the immediate form of binary operation op with the constant
// c as its right-hand operand, or (left) as its left-hand one, and the
// immediate to give it; ok is false when the table has no such form. A
// left-hand constant moves to the right through the operation's mirror
// (commutative operations are their own, a < b mirrors to b > a) or selects
// rsub; a subtracted constant becomes an added one; a shift count is reduced
// modulo the width.
func immForm(op uint16, c uint64, left bool) (form uint16, imm uint64, ok bool) {
	add, sub, shl, rsub, mask := uint16(wasm.OpI64Add), uint16(wasm.OpI64Sub), uint16(wasm.OpI64Shl), uint16(tI64RsubImm), uint64(math.MaxUint64)
	if is32(op) {
		add, sub, shl, rsub, mask = uint16(wasm.OpI32Add), uint16(wasm.OpI32Sub), uint16(wasm.OpI32Shl), tI32RsubImm, math.MaxUint32
	}
	switch {
	case op == sub && left:
		return rsub, c & mask, true
	case op == sub:
		op, c = add, -c
	case left:
		op = ops[op].swap // 0, which has no immediate form, when there is no mirror
	case op >= shl && op <= shl+2: // shl, shr_s, shr_u
		c &= uint64(bits.Len64(mask) - 1)
	}
	return ops[op].imm, c & mask, ops[op].imm != 0
}

// brImmOperand returns the constant c of a comparison as the literal b of a
// fused compare-and-branch, whose imm holds the target: it must fit an int32,
// which the branch sign-extends (every i32 constant does).
func brImmOperand(i64 bool, c uint64) (b int32, ok bool) {
	if !i64 {
		return int32(uint32(c)), true
	}
	return int32(c), int64(c) == int64(int32(c))
}

// isBranch reports whether op transfers control, and whether it is
// unconditional (ends fallthrough).
func isBranch(op uint16) (branch, uncond bool) {
	switch ops[op].kind {
	case kindJump, kindBrTable, kindRet, kindTrap:
		return true, true
	case kindBrIf, kindBrCmp, kindBrCmpImm:
		return true, false
	}
	return false, false
}

// hasTarget reports whether the op's imm is a jump target.
func hasTarget(op uint16) bool {
	switch ops[op].kind {
	case kindJump, kindBrIf, kindBrCmp, kindBrCmpImm:
		return true
	}
	return false
}

// pure reports whether op only computes a register from registers and
// literals: no trap, no memory or global write, no control transfer. Pure
// instructions are removable when dead and may be duplicated.
func pure(op uint16) bool {
	switch ops[op].kind {
	case kindBin, kindBinImm, kindUn, kindConst, kindMove, kindSelect, kindSelectImm, kindGlobalGet:
		return !ops[op].traps
	}
	return false
}

// regUses calls fn for every register read by t.
func (c *Code) regUses(t *tin, fn func(r int32)) {
	switch ops[t.op].kind {
	case kindBin, kindLoadIndexed, kindStore, kindMemOp, kindBrCmp:
		fn(t.a)
		fn(t.b)
	case kindBinImm, kindUn, kindMove, kindLoad, kindLoadScaled, kindMemOpImm,
		kindGlobalSet, kindMemoryGrow, kindBrIf, kindBrCmpImm, kindBrTable:
		fn(t.a)
	case kindSelect:
		fn(t.a)
		fn(t.b)
		fn(int32(t.imm))
	case kindSelectImm:
		fn(t.a)
		fn(int32(t.imm))
	case kindCall:
		for r, end := t.a, t.a+t.b>>16; r < end; r++ {
			fn(r)
		}
	case kindCallIndirect:
		for r, end := t.a, t.a+t.b>>16; r <= end; r++ {
			fn(r)
		}
	case kindRet:
		for i := 0; i < c.NResults; i++ {
			fn(int32(c.NLocals + i))
		}
	}
}

// reads reports whether t reads register r.
func (c *Code) reads(t *tin, r int32) (yes bool) {
	c.regUses(t, func(u int32) { yes = yes || u == r })
	return yes
}

// renameUses rewrites every register t reads through f. Calls and returns
// read fixed registers and are left alone.
func renameUses(t *tin, f func(r int32) int32) {
	switch ops[t.op].kind {
	case kindBin, kindLoadIndexed, kindStore, kindMemOp, kindBrCmp:
		t.a, t.b = f(t.a), f(t.b)
	case kindBinImm, kindUn, kindMove, kindLoad, kindLoadScaled, kindMemOpImm,
		kindGlobalSet, kindMemoryGrow, kindBrIf, kindBrCmpImm, kindBrTable:
		t.a = f(t.a)
	case kindSelect:
		t.a, t.b = f(t.a), f(t.b)
		t.imm = uint64(f(int32(t.imm)))
	case kindSelectImm:
		t.a = f(t.a)
		t.imm = uint64(f(int32(t.imm)))
	}
}

// regDefs calls fn for every register written by t.
func regDefs(t *tin, fn func(r int32)) {
	switch ops[t.op].kind {
	case kindBin, kindBinImm, kindUn, kindConst, kindMove, kindLoad, kindLoadScaled,
		kindLoadIndexed, kindSelect, kindSelectImm, kindGlobalGet, kindMemorySize, kindMemoryGrow:
		fn(t.d)
	case kindCall, kindCallIndirect:
		for r, end := t.a, t.a+t.b&0xFFFF; r < end; r++ {
			fn(r)
		}
	}
}

// evalCmp evaluates a wasm comparison at compile time; ok is false for any
// other op. The integer families are ordered eq ne lt_s lt_u gt_s gt_u le_s
// le_u ge_s ge_u, the float ones eq ne lt gt le ge. An i32 or f32 operand is
// widened first, which keeps every order and every NaN.
func evalCmp(op uint16, x, y uint64) (holds, ok bool) {
	intCmp := func(k wasm.Opcode, sx, sy int64, ux, uy uint64) bool {
		return [10]bool{ux == uy, ux != uy, sx < sy, ux < uy, sx > sy, ux > uy, sx <= sy, ux <= uy, sx >= sy, ux >= uy}[k]
	}
	floatCmp := func(k wasm.Opcode, x, y float64) bool {
		return [6]bool{x == y, x != y, x < y, x > y, x <= y, x >= y}[k]
	}
	switch w := wasm.Opcode(op); {
	case w >= wasm.OpI32Eq && w <= wasm.OpI32GeU:
		return intCmp(w-wasm.OpI32Eq, int64(int32(x)), int64(int32(y)), uint64(uint32(x)), uint64(uint32(y))), true
	case w >= wasm.OpI64Eq && w <= wasm.OpI64GeU:
		return intCmp(w-wasm.OpI64Eq, int64(x), int64(y), x, y), true
	case w >= wasm.OpF32Eq && w <= wasm.OpF32Ge:
		return floatCmp(w-wasm.OpF32Eq, float64(rt.F32(x)), float64(rt.F32(y))), true
	case w >= wasm.OpF64Eq && w <= wasm.OpF64Ge:
		return floatCmp(w-wasm.OpF64Eq, rt.F64(x), rt.F64(y)), true
	}
	return false, false
}

// pureEval evaluates side-effect-free value operations at compile time for
// constant folding. Trapping operations (divisions, truncations) and memory
// operations report ok=false and are never folded.
func pureEval(op uint16, x, y uint64) (uint64, bool) {
	if holds, ok := evalCmp(op, x, y); ok {
		return rt.B2i(holds), true
	}
	switch wasm.Opcode(op) {
	case wasm.OpI32Eqz:
		return rt.B2i(uint32(x) == 0), true
	case wasm.OpI64Eqz:
		return rt.B2i(x == 0), true
	case wasm.OpI32Add:
		return uint64(uint32(x) + uint32(y)), true
	case wasm.OpI32Sub:
		return uint64(uint32(x) - uint32(y)), true
	case wasm.OpI32Mul:
		return uint64(uint32(x) * uint32(y)), true
	case wasm.OpI32And:
		return uint64(uint32(x) & uint32(y)), true
	case wasm.OpI32Or:
		return uint64(uint32(x) | uint32(y)), true
	case wasm.OpI32Xor:
		return uint64(uint32(x) ^ uint32(y)), true
	case wasm.OpI32Shl:
		return uint64(uint32(x) << (y & 31)), true
	case wasm.OpI32ShrS:
		return uint64(uint32(int32(uint32(x)) >> (y & 31))), true
	case wasm.OpI32ShrU:
		return uint64(uint32(x) >> (y & 31)), true
	case wasm.OpI32Rotl:
		return rt.Rotl32(x, y), true
	case wasm.OpI32Rotr:
		return rt.Rotr32(x, y), true
	case wasm.OpI32Clz:
		return uint64(bits.LeadingZeros32(uint32(x))), true
	case wasm.OpI32Ctz:
		return uint64(bits.TrailingZeros32(uint32(x))), true
	case wasm.OpI32Popcnt:
		return uint64(bits.OnesCount32(uint32(x))), true
	case wasm.OpI64Add:
		return x + y, true
	case wasm.OpI64Sub:
		return x - y, true
	case wasm.OpI64Mul:
		return x * y, true
	case wasm.OpI64And:
		return x & y, true
	case wasm.OpI64Or:
		return x | y, true
	case wasm.OpI64Xor:
		return x ^ y, true
	case wasm.OpI64Shl:
		return x << (y & 63), true
	case wasm.OpI64ShrS:
		return uint64(int64(x) >> (y & 63)), true
	case wasm.OpI64ShrU:
		return x >> (y & 63), true
	case wasm.OpI64Rotl:
		return rt.Rotl64(x, y), true
	case wasm.OpI64Rotr:
		return rt.Rotr64(x, y), true
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(x)), true
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(x)), true
	case wasm.OpI64Popcnt:
		return uint64(bits.OnesCount64(x)), true
	case wasm.OpF64Add:
		return rt.F64Bits(rt.F64(x) + rt.F64(y)), true
	case wasm.OpF64Sub:
		return rt.F64Bits(rt.F64(x) - rt.F64(y)), true
	case wasm.OpF64Mul:
		return rt.F64Bits(rt.F64(x) * rt.F64(y)), true
	case wasm.OpF64Div:
		return rt.F64Bits(rt.F64(x) / rt.F64(y)), true
	case wasm.OpF64Neg:
		return x ^ 0x8000000000000000, true
	case wasm.OpF64Abs:
		return x &^ 0x8000000000000000, true
	case wasm.OpF64Sqrt:
		return rt.F64Bits(math.Sqrt(rt.F64(x))), true
	case wasm.OpF32Add:
		return rt.F32Bits(rt.F32(x) + rt.F32(y)), true
	case wasm.OpF32Sub:
		return rt.F32Bits(rt.F32(x) - rt.F32(y)), true
	case wasm.OpF32Mul:
		return rt.F32Bits(rt.F32(x) * rt.F32(y)), true
	case wasm.OpF32Div:
		return rt.F32Bits(rt.F32(x) / rt.F32(y)), true
	case wasm.OpI32WrapI64:
		return uint64(uint32(x)), true
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(uint32(x)))), true
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(x)), true
	case wasm.OpF64ConvertI32S:
		return rt.F64Bits(float64(int32(uint32(x)))), true
	case wasm.OpF64ConvertI32U:
		return rt.F64Bits(float64(uint32(x))), true
	case wasm.OpF64ConvertI64S:
		return rt.F64Bits(float64(int64(x))), true
	case wasm.OpF64ConvertI64U:
		return rt.F64Bits(float64(x)), true
	case wasm.OpF64PromoteF32:
		return rt.F64Bits(float64(rt.F32(x))), true
	case wasm.OpF32DemoteF64:
		return rt.F32Bits(float32(rt.F64(x))), true
	case wasm.OpF32ConvertI32S:
		return rt.F32Bits(float32(int32(uint32(x)))), true
	case wasm.OpF32ConvertI64S:
		return rt.F32Bits(float32(int64(x))), true
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return x, true
	case wasm.OpI32Extend8S:
		return uint64(uint32(int32(int8(uint8(x))))), true
	case wasm.OpI32Extend16S:
		return uint64(uint32(int32(int16(uint16(x))))), true
	case wasm.OpI64Extend8S:
		return uint64(int64(int8(uint8(x)))), true
	case wasm.OpI64Extend16S:
		return uint64(int64(int16(uint16(x)))), true
	case wasm.OpI64Extend32S:
		return uint64(int64(int32(uint32(x)))), true
	}
	return 0, false
}
