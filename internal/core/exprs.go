package core

import (
	"fmt"

	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// gen wraps a function builder with the compiler context and an error slot
// (emission helpers are void; the first error wins and aborts compilation).
type gen struct {
	c   *compiler
	f   *wasm.FuncBuilder
	err error
}

func (g *gen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("core: "+format, args...)
	}
}

// loadColumn pushes column[row], given the column's rewired base address.
// For CHAR columns it pushes the address of the value.
func (g *gen) loadColumn(base uint32, t types.Type, row wasm.Local) {
	f := g.f
	switch t.Kind {
	case types.Bool:
		f.LocalGet(row)
		f.I32Load8U(base)
	case types.Int32, types.Date:
		f.LocalGet(row)
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Load(base)
	case types.Int64, types.Decimal:
		f.LocalGet(row)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl)
		f.I64Load(base)
	case types.Float64:
		f.LocalGet(row)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl)
		f.F64Load(base)
	case types.Char:
		f.LocalGet(row)
		f.I32Const(int32(t.Length))
		f.I32Mul()
		f.I32Const(int32(base))
		f.I32Add()
	}
}

// internString places a string constant in the constant region and returns
// its guest address.
func (c *compiler) internString(s string) uint32 {
	if addr, ok := c.constStrings[s]; ok {
		return addr
	}
	addr := constBase + c.constCursor
	c.constData = append(c.constData, s...)
	c.constCursor += uint32(len(s))
	if c.constCursor > constSize && c.err == nil {
		// No error return path through the expression emitters; record the
		// failure for compile() to surface instead of panicking out of the
		// public API.
		c.err = fmt.Errorf("core: string constants exceed the %d-byte constant region", constSize)
	}
	c.constStrings[s] = addr
	return addr
}

// expr compiles a bound expression, leaving its value on the stack (an i32
// pointer for CHAR values).
func (g *gen) expr(e *env, ex sema.Expr) {
	if b, ok := e.lookup(ex); ok {
		b.push()
		return
	}
	f := g.f
	switch x := ex.(type) {
	case *sema.Const:
		switch x.V.Type.Kind {
		case types.Bool, types.Int32, types.Date:
			f.I32Const(int32(x.V.I))
		case types.Int64, types.Decimal:
			f.I64Const(x.V.I)
		case types.Float64:
			f.F64Const(x.V.F)
		case types.Char:
			f.I32Const(int32(g.c.internString(x.V.S)))
		default:
			g.fail("unsupported constant type %s", x.V.Type)
		}
	case *sema.Param:
		// Typed load from the parameter region: the slot address is a
		// compile-time constant, only its contents vary per execution — the
		// code is byte-identical for every literal the slot may hold.
		slot, ok := g.c.paramSlots[x.Idx]
		if !ok {
			g.fail("parameter ?%d has no slot", x.Idx)
			return
		}
		addr := uint32(paramBase) + slot.Off
		switch x.T.Kind {
		case types.Bool, types.Int32, types.Date:
			f.I32Const(0)
			f.I32Load(addr)
		case types.Int64, types.Decimal:
			f.I32Const(0)
			f.I64Load(addr)
		case types.Float64:
			f.I32Const(0)
			f.F64Load(addr)
		case types.Char:
			f.I32Const(int32(addr))
		default:
			g.fail("unsupported parameter type %s", x.T)
		}
	case *sema.ColRef:
		g.fail("unbound column reference %s", x)
	case *sema.AggRef:
		g.fail("unbound aggregate reference %s", x)
	case *sema.KeyRef:
		g.fail("unbound key reference %s", x)
	case *sema.Binary:
		g.binary(e, x)
	case *sema.Not:
		g.expr(e, x.E)
		f.I32Eqz()
	case *sema.Cast:
		g.cast(e, x)
	case *sema.Like:
		g.like(e, x)
	case *sema.Case:
		g.caseExpr(e, x)
	case *sema.ExtractYear:
		g.expr(e, x.E)
		f.Call(g.c.extractYearFunc().Index)
	default:
		g.fail("unsupported expression %T", ex)
	}
}

// conjunction evaluates conjuncts as one boolean expression combined with
// bitwise AND — a single conditional branch per selection, no
// short-circuiting (matching the paper's mutable).
func (g *gen) conjunction(e *env, conjuncts []sema.Expr) error {
	for i, cj := range conjuncts {
		g.expr(e, cj)
		if i > 0 {
			g.f.I32And()
		}
	}
	return g.err
}

func (g *gen) binary(e *env, x *sema.Binary) {
	f := g.f
	// Logical connectives: bitwise on 0/1 (no short-circuit).
	if x.Op == sema.OpAnd || x.Op == sema.OpOr {
		g.expr(e, x.L)
		g.expr(e, x.R)
		if x.Op == sema.OpAnd {
			f.I32And()
		} else {
			f.I32Or()
		}
		return
	}

	operandT := x.L.Type()
	if x.Op.IsComparison() {
		if operandT.Kind == types.Char {
			g.charCompare(e, x)
			return
		}
		g.expr(e, x.L)
		g.expr(e, x.R)
		f.Op(cmpOpcode(x.Op, operandT))
		return
	}

	// Arithmetic.
	g.expr(e, x.L)
	g.expr(e, x.R)
	switch x.T.Kind {
	case types.Int32:
		switch x.Op {
		case sema.OpAdd:
			f.I32Add()
		case sema.OpSub:
			f.I32Sub()
		case sema.OpMul:
			f.I32Mul()
		default:
			g.fail("unexpected i32 operator %s", x.Op)
		}
	case types.Int64, types.Decimal:
		switch x.Op {
		case sema.OpAdd:
			f.I64Add()
		case sema.OpSub:
			f.I64Sub()
		case sema.OpMul:
			f.I64Mul()
		case sema.OpMod:
			f.Op(wasm.OpI64RemS)
		default:
			g.fail("unexpected i64 operator %s", x.Op)
		}
	case types.Float64:
		switch x.Op {
		case sema.OpAdd:
			f.F64Add()
		case sema.OpSub:
			f.F64Sub()
		case sema.OpMul:
			f.F64Mul()
		case sema.OpDiv:
			f.F64Div()
		default:
			g.fail("unexpected f64 operator %s", x.Op)
		}
	default:
		g.fail("unsupported arithmetic result type %s", x.T)
	}
}

// cmpOpcode returns the wasm comparison opcode for op over operand type t.
func cmpOpcode(op sema.OpKind, t types.Type) wasm.Opcode {
	switch t.Kind {
	case types.Bool, types.Int32, types.Date:
		switch op {
		case sema.OpEq:
			return wasm.OpI32Eq
		case sema.OpNe:
			return wasm.OpI32Ne
		case sema.OpLt:
			return wasm.OpI32LtS
		case sema.OpLe:
			return wasm.OpI32LeS
		case sema.OpGt:
			return wasm.OpI32GtS
		case sema.OpGe:
			return wasm.OpI32GeS
		}
	case types.Int64, types.Decimal:
		switch op {
		case sema.OpEq:
			return wasm.OpI64Eq
		case sema.OpNe:
			return wasm.OpI64Ne
		case sema.OpLt:
			return wasm.OpI64LtS
		case sema.OpLe:
			return wasm.OpI64LeS
		case sema.OpGt:
			return wasm.OpI64GtS
		case sema.OpGe:
			return wasm.OpI64GeS
		}
	case types.Float64:
		switch op {
		case sema.OpEq:
			return wasm.OpF64Eq
		case sema.OpNe:
			return wasm.OpF64Ne
		case sema.OpLt:
			return wasm.OpF64Lt
		case sema.OpLe:
			return wasm.OpF64Le
		case sema.OpGt:
			return wasm.OpF64Gt
		case sema.OpGe:
			return wasm.OpF64Ge
		}
	}
	panic("core: no comparison opcode")
}

// charCompare compiles CHAR comparisons: = and <> (and so IN lists) inline
// through emitCharEq, the orderings through a generated monomorphic
// string-compare function specialized to the two operand widths.
func (g *gen) charCompare(e *env, x *sema.Binary) {
	w1 := x.L.Type().Length
	w2 := x.R.Type().Length
	if x.Op == sema.OpEq || x.Op == sema.OpNe {
		a, b := g.charOperand(e, x.L), g.charOperand(e, x.R)
		g.emitCharEq(a, w1, b, w2)
		if x.Op == sema.OpNe {
			g.f.I32Eqz()
		}
		return
	}
	cmp := g.c.strcmpFunc(w1, w2)
	g.expr(e, x.L)
	g.expr(e, x.R)
	g.f.Call(cmp.Index)
	g.f.I32Const(0)
	switch x.Op {
	case sema.OpLt:
		g.f.Op(wasm.OpI32LtS)
	case sema.OpLe:
		g.f.Op(wasm.OpI32LeS)
	case sema.OpGt:
		g.f.Op(wasm.OpI32GtS)
	case sema.OpGe:
		g.f.Op(wasm.OpI32GeS)
	}
}

// charRef addresses a CHAR value for chunk loads: base pushes an i32 address
// (from a local or a global) and off goes into the loads' offset immediates.
type charRef struct {
	base func()
	off  uint32
}

// charOperand evaluates a CHAR operand once, into a local holding its
// address.
func (g *gen) charOperand(e *env, ex sema.Expr) charRef {
	p := g.f.AddLocal(wasm.I32)
	g.expr(e, ex)
	g.f.LocalSet(p)
	return g.localChars(p, 0)
}

// localChars addresses the value at ptr + off.
func (g *gen) localChars(ptr wasm.Local, off uint32) charRef {
	return charRef{base: func() { g.f.LocalGet(ptr) }, off: off}
}

// charChunk is the n bytes at offset at of a CHAR value, n one of 8, 4, 2, 1.
type charChunk struct{ at, n int }

// charChunks splits bytes [from, to) of a value widest first into 8/4/2/1-byte
// chunks — the split copyChar uses — so no chunk reaches past byte to: a
// value may end where a mapped column ends.
func charChunks(from, to int) []charChunk {
	var out []charChunk
	for at := from; at < to; {
		n := 8
		for n > to-at {
			n >>= 1
		}
		out = append(out, charChunk{at, n})
		at += n
	}
	return out
}

// loadChunk pushes chunk c of the value at r, zero-extended to an i64.
func (g *gen) loadChunk(r charRef, c charChunk) {
	op := wasm.OpI64Load8U
	switch c.n {
	case 8:
		op = wasm.OpI64Load
	case 4:
		op = wasm.OpI64Load32U
	case 2:
		op = wasm.OpI64Load16U
	}
	r.base()
	// Alignment hint 0: values follow each other unpadded.
	g.f.Emit(op, uint64(r.off)+uint64(c.at), 0)
}

// spaces is an n-byte chunk of padding, as loadChunk would push it.
func spaces(n int) int64 {
	return int64(uint64(0x2020202020202020) >> (64 - 8*n))
}

// loadPadded pushes chunk c of the value at r, which ends at byte w inside
// the chunk, as if the value were padded: its bytes loaded widest first and
// shifted into place, spaces above them.
func (g *gen) loadPadded(r charRef, c charChunk, w int) {
	f := g.f
	for i, p := range charChunks(c.at, w) {
		g.loadChunk(r, p)
		if i > 0 {
			f.I64Const(int64(8 * (p.at - c.at)))
			f.Op(wasm.OpI64Shl)
			f.Op(wasm.OpI64Or)
		}
	}
	f.I64Const(int64(uint64(spaces(c.n)) &^ (1<<(8*(w-c.at)) - 1)))
	f.Op(wasm.OpI64Or)
}

// emitCharEq pushes 1 if the CHAR(wa) value at a equals the CHAR(wb) value at
// b under SQL's padded comparison — the shorter value compares as if padded
// with spaces — and 0 otherwise. The widths are compile-time constants, so
// this is straight-line code over the longer value's chunks: each is compared
// with the same bytes of the shorter value — loaded whole, padded with spaces
// in the register where the shorter value ends inside the chunk, or a
// constant of spaces past its end — and the differences are or-ed into one
// test. Nothing is loaded past either value's width.
func (g *gen) emitCharEq(a charRef, wa int, b charRef, wb int) {
	f := g.f
	long, short, sw := a, b, wb
	if wb > wa {
		long, short, sw = b, a, wa
	}
	chunks := charChunks(0, max(wa, wb))
	if len(chunks) == 0 {
		f.I32Const(1) // two empty strings
		return
	}
	for i, c := range chunks {
		g.loadChunk(long, c)
		switch {
		case c.at+c.n <= sw:
			g.loadChunk(short, c)
		case c.at >= sw:
			f.I64Const(spaces(c.n))
		default:
			g.loadPadded(short, c, sw)
		}
		if len(chunks) == 1 {
			f.Op(wasm.OpI64Eq)
			return
		}
		f.Op(wasm.OpI64Xor)
		if i > 0 {
			f.Op(wasm.OpI64Or)
		}
	}
	f.Op(wasm.OpI64Eqz)
}

// strcmpFunc generates (once per width pair) a three-way comparison of two
// space-padded CHAR values, honoring SQL padded-comparison semantics. Only the
// orderings (<, <=, >, >=, ORDER BY) use it; equality is emitCharEq.
func (c *compiler) strcmpFunc(w1, w2 int) *wasm.FuncBuilder {
	if f, ok := c.strcmps[[2]int{w1, w2}]; ok {
		return f
	}
	f := c.b.NewFunc(fmt.Sprintf("strcmp_%d_%d", w1, w2),
		wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.strcmps[[2]int{w1, w2}] = f
	n := w1
	if w2 > n {
		n = w2
	}
	i := f.AddLocal(wasm.I32)
	b1 := f.AddLocal(wasm.I32)
	b2 := f.AddLocal(wasm.I32)

	// loadByteSafe pushes p[i] for i < width and ' ' beyond (SQL padded
	// comparison), clamping the load index so no out-of-bounds access
	// happens on the shorter operand.
	loadByteSafe := func(param wasm.Local, width int) {
		if width >= n {
			f.LocalGet(param)
			f.LocalGet(i)
			f.I32Add()
			f.I32Load8U(0)
			return
		}
		// idx = min(i, width-1); b = p[idx]; b = i < width ? b : ' '
		f.LocalGet(param)
		f.LocalGet(i)
		f.I32Const(int32(width - 1))
		f.LocalGet(i)
		f.I32Const(int32(width))
		f.Op(wasm.OpI32LtU)
		f.Select()
		f.I32Add()
		f.I32Load8U(0)
		f.I32Const(32)
		f.LocalGet(i)
		f.I32Const(int32(width))
		f.Op(wasm.OpI32LtU)
		f.Select()
	}

	f.Block(wasm.BlockOf(wasm.I32))
	f.Loop(wasm.BlockOf(wasm.I32))
	// if i >= n: equal
	f.I32Const(0)
	f.LocalGet(i)
	f.I32Const(int32(n))
	f.I32GeU()
	f.BrIf(1)
	f.Drop()
	loadByteSafe(f.Param(0), w1)
	f.LocalSet(b1)
	loadByteSafe(f.Param(1), w2)
	f.LocalSet(b2)
	// if b1 != b2: return b1 - b2
	f.LocalGet(b1)
	f.LocalGet(b2)
	f.I32Sub()
	f.LocalGet(b1)
	f.LocalGet(b2)
	f.I32Ne()
	f.BrIf(1)
	f.Drop()
	// i++
	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()
	return f
}

func (g *gen) cast(e *env, x *sema.Cast) {
	from := x.E.Type()
	to := x.To
	g.expr(e, x.E)
	f := g.f
	switch {
	case from.Kind == types.Int32 && to.Kind == types.Int64:
		f.Op(wasm.OpI64ExtendI32S)
	case from.Kind == types.Int64 && to.Kind == types.Int32:
		f.Op(wasm.OpI32WrapI64)
	case from.Kind == types.Int32 && to.Kind == types.Float64:
		f.Op(wasm.OpF64ConvertI32S)
	case from.Kind == types.Int64 && to.Kind == types.Float64:
		f.Op(wasm.OpF64ConvertI64S)
	case from.Kind == types.Decimal && to.Kind == types.Float64:
		f.Op(wasm.OpF64ConvertI64S)
		f.F64Const(float64(types.Pow10(from.Scale)))
		f.F64Div()
	case from.Kind == types.Int32 && to.Kind == types.Decimal:
		f.Op(wasm.OpI64ExtendI32S)
		if to.Scale > 0 {
			f.I64Const(types.Pow10(to.Scale))
			f.I64Mul()
		}
	case from.Kind == types.Int64 && to.Kind == types.Decimal:
		if to.Scale > 0 {
			f.I64Const(types.Pow10(to.Scale))
			f.I64Mul()
		}
	case from.Kind == types.Decimal && to.Kind == types.Decimal:
		if d := to.Scale - from.Scale; d > 0 {
			f.I64Const(types.Pow10(d))
			f.I64Mul()
		} else if d < 0 {
			f.I64Const(types.Pow10(-d))
			f.Op(wasm.OpI64DivS)
		}
	case from.Kind == types.Date && to.Kind == types.Int32:
		// Day number is already an i32.
	case from.Kind == to.Kind:
		// Identity (e.g. precision-only decimal difference).
	default:
		g.fail("unsupported cast %s → %s", from, to)
	}
}

func (g *gen) caseExpr(e *env, x *sema.Case) {
	f := g.f
	rt := wasmType(x.T)
	var emit func(i int)
	emit = func(i int) {
		if i == len(x.Whens) {
			g.expr(e, x.Else)
			return
		}
		g.expr(e, x.Whens[i].Cond)
		f.If(wasm.BlockOf(rt))
		g.expr(e, x.Whens[i].Then)
		f.Else()
		emit(i + 1)
		f.End()
	}
	emit(0)
}

// extractYearFunc generates (once) the civil-date year extraction over day
// numbers, using i64 arithmetic and branch-free floored division.
func (c *compiler) extractYearFunc() *wasm.FuncBuilder {
	if c.fnExtractYear != nil {
		return c.fnExtractYear
	}
	f := c.b.NewFunc("extract_year", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.fnExtractYear = f
	// z = days + 719468
	z := f.AddLocal(wasm.I64)
	era := f.AddLocal(wasm.I64)
	doe := f.AddLocal(wasm.I64)
	yoe := f.AddLocal(wasm.I64)
	doy := f.AddLocal(wasm.I64)
	mp := f.AddLocal(wasm.I64)
	y := f.AddLocal(wasm.I64)

	f.LocalGet(f.Param(0))
	f.Op(wasm.OpI64ExtendI32S)
	f.I64Const(719468)
	f.I64Add()
	f.LocalSet(z)

	// era = floorDiv(z, 146097): (z >= 0 ? z : z-146096) / 146097
	f.LocalGet(z)
	f.LocalGet(z)
	f.I64Const(146096)
	f.I64Sub()
	f.LocalGet(z)
	f.I64Const(0)
	f.Op(wasm.OpI64GeS)
	f.Select()
	f.I64Const(146097)
	f.Op(wasm.OpI64DivS)
	f.LocalSet(era)

	// doe = z - era*146097
	f.LocalGet(z)
	f.LocalGet(era)
	f.I64Const(146097)
	f.I64Mul()
	f.I64Sub()
	f.LocalSet(doe)

	// yoe = (doe - doe/1460 + doe/36524 - doe/146096) / 365
	f.LocalGet(doe)
	f.LocalGet(doe)
	f.I64Const(1460)
	f.Op(wasm.OpI64DivS)
	f.I64Sub()
	f.LocalGet(doe)
	f.I64Const(36524)
	f.Op(wasm.OpI64DivS)
	f.I64Add()
	f.LocalGet(doe)
	f.I64Const(146096)
	f.Op(wasm.OpI64DivS)
	f.I64Sub()
	f.I64Const(365)
	f.Op(wasm.OpI64DivS)
	f.LocalSet(yoe)

	// doy = doe - (365*yoe + yoe/4 - yoe/100)
	f.LocalGet(doe)
	f.LocalGet(yoe)
	f.I64Const(365)
	f.I64Mul()
	f.LocalGet(yoe)
	f.I64Const(4)
	f.Op(wasm.OpI64DivS)
	f.I64Add()
	f.LocalGet(yoe)
	f.I64Const(100)
	f.Op(wasm.OpI64DivS)
	f.I64Sub()
	f.I64Sub()
	f.LocalSet(doy)

	// mp = (5*doy + 2)/153
	f.LocalGet(doy)
	f.I64Const(5)
	f.I64Mul()
	f.I64Const(2)
	f.I64Add()
	f.I64Const(153)
	f.Op(wasm.OpI64DivS)
	f.LocalSet(mp)

	// y = yoe + era*400, +1 if month <= 2 (mp >= 10)
	f.LocalGet(yoe)
	f.LocalGet(era)
	f.I64Const(400)
	f.I64Mul()
	f.I64Add()
	f.LocalSet(y)

	f.LocalGet(y)
	f.I64Const(1)
	f.I64Add()
	f.LocalGet(y)
	f.LocalGet(mp)
	f.I64Const(10)
	f.Op(wasm.OpI64GeS)
	f.Select()
	f.Op(wasm.OpI32WrapI64)
	return f
}

// alloc pushes the address of a fresh, zeroed, 8-aligned allocation of the
// size currently on the stack (i32), growing memory as needed.
func (c *compiler) allocFunc() *wasm.FuncBuilder {
	if c.fnAlloc != nil {
		return c.fnAlloc
	}
	f := c.b.NewFunc("alloc", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.fnAlloc = f
	ptr := f.AddLocal(wasm.I32)
	need := f.AddLocal(wasm.I32)

	// ptr = (heap + 7) &^ 7
	f.GlobalGet(c.gHeap)
	f.I32Const(7)
	f.I32Add()
	f.I32Const(-8)
	f.I32And()
	f.LocalSet(ptr)
	// heap = ptr + size
	f.LocalGet(ptr)
	f.LocalGet(f.Param(0))
	f.I32Add()
	f.GlobalSet(c.gHeap)
	// need = (heap + 65535) >> 16; grow if beyond memory.size
	f.GlobalGet(c.gHeap)
	f.I32Const(65535)
	f.I32Add()
	f.I32Const(16)
	f.Op(wasm.OpI32ShrU)
	f.LocalSet(need)
	f.LocalGet(need)
	f.MemorySize()
	f.Op(wasm.OpI32GtU)
	f.If(wasm.BlockVoid)
	f.LocalGet(need)
	f.MemorySize()
	f.I32Sub()
	// Grow with headroom to amortize.
	f.I32Const(16)
	f.I32Add()
	f.MemoryGrow()
	f.I32Const(-1)
	f.I32Eq()
	f.If(wasm.BlockVoid)
	f.Unreachable() // out of memory
	f.End()
	f.End()
	f.LocalGet(ptr)
	return f
}
