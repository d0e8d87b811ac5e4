package vectorized

import (
	"fmt"

	"wasmdb/internal/wasm"
)

// Predicate kernels. A selection kernel (selShape) refines a selection
// vector; where a predicate is needed as a value (CASE, OR, output) its
// value twin (valShape) writes 0/1 per row through the same body.

// sel_seq(out, begin, end) -> n
func (k *kb) genSelSeq() {
	f := k.fn("sel_seq", i32s(3), wasm.I32)
	out, begin, end := f.Param(0), f.Param(1), f.Param(2)
	i := f.AddLocal(wasm.I32)
	n := f.AddLocal(wasm.I32)
	f.LocalGet(end)
	f.LocalGet(begin)
	f.I32Sub()
	f.LocalSet(n)
	f.loop(i, n, func() {
		f.selAddr(out, i)
		f.LocalGet(i)
		f.I32Store(0)
	})
	f.LocalGet(n)
	f.export()
}

// sel_nonzero(selIn, n, vec, selOut) -> n'
func (k *kb) genSelNonzero() {
	k.rows("sel_nonzero", i32s(4), selShape, func(f *kfn) {
		f.keep(3, func() {
			f.at(2)
			f.I64Load(0)
			f.Op(wasm.OpI64Eqz)
			f.I32Eqz()
		})
	})
}

// sel_nonnan_f64(selIn, n, vec, selOut) -> n': keep rows whose float value
// is not NaN (v == v). Join builds filter NaN keys out — they can never
// satisfy the probe's float equality.
func (k *kb) genSelNonNanF64() {
	k.rows("sel_nonnan_f64", i32s(4), selShape, func(f *kfn) {
		v := f.AddLocal(wasm.F64)
		f.at(2)
		f.F64Load(0)
		f.LocalSet(v)
		f.keep(3, func() {
			f.LocalGet(v)
			f.LocalGet(v)
			f.Op(wasm.OpF64Eq)
		})
	})
}

// sel_<cmp>_<elem>(selIn, n, colBase, batchStart, imm, selOut) -> n'
// The immediate is i64 for integer columns (sign-compared) and f64 for
// float columns.
func (k *kb) genSelCmpImm(elem, cmp int) {
	immT := wasm.I64
	if elem == elemF64 {
		immT = wasm.F64
	}
	params := []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, immT, wasm.I32}
	k.rows(fmt.Sprintf("sel_%s_%s", cmpNames[cmp], elemNames[elem]), params, selShape, func(f *kfn) {
		col, start, imm := f.Param(2), f.Param(3), f.Param(4)
		f.keep(5, func() {
			f.LocalGet(start)
			f.LocalGet(f.row)
			f.I32Add()
			f.loadElem(elem, col, true)
			f.LocalGet(imm)
			if elem == elemF64 {
				f.Op([...]wasm.Opcode{wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Le, wasm.OpF64Gt, wasm.OpF64Ge}[cmp])
			} else {
				f.Op([...]wasm.Opcode{wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LeS, wasm.OpI64GtS, wasm.OpI64GeS}[cmp])
			}
		})
	})
}

// sel_like / val_like(selIn, n, colBase, width, batchStart, patAddr, patLen,
// out). The generic interpreted LIKE matcher: the pattern is data, examined
// per row — the contrast to the compiled per-pattern matcher of
// internal/core.
func (k *kb) genLike(s shape) {
	name := "sel_like"
	if s == valShape {
		name = "val_like"
	}
	k.rows(name, i32s(8), s, func(f *kfn) {
		col, width, start, pat, plen := f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
		ptr := f.AddLocal(wasm.I32)
		matched := f.AddLocal(wasm.I32)
		f.charAt(ptr, col, width, start)
		f.globMatch(ptr, width, pat, plen, matched)
		f.keep(7, func() { f.LocalGet(matched) })
	})
}

// sel_eqchar(selIn, n, colBase, width, batchStart, strAddr, strLen, neg,
// selOut) -> n' keeps the rows whose padded equality with the constant
// differs from neg; val_eqchar(selIn, n, colBase, width, batchStart,
// strAddr, strLen, out) writes the equality as 0/1.
func (k *kb) genEqChar(s shape) {
	name, nParams := "sel_eqchar", 9
	if s == valShape {
		name, nParams = "val_eqchar", 8
	}
	k.rows(name, i32s(nParams), s, func(f *kfn) {
		col, width, start, str, slen := f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
		ptr := f.AddLocal(wasm.I32)
		eq := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		b1 := f.AddLocal(wasm.I32)
		b2 := f.AddLocal(wasm.I32)
		nmax := f.AddLocal(wasm.I32)
		f.charAt(ptr, col, width, start)
		// padded compare over max(width, slen)
		f.LocalGet(width)
		f.LocalGet(slen)
		f.LocalGet(width)
		f.LocalGet(slen)
		f.Op(wasm.OpI32GtS)
		f.Select()
		f.LocalSet(nmax)
		f.I32Const(1)
		f.LocalSet(eq)
		f.forRange(j, nmax, 1, func() {
			f.padByte(ptr, j, width)
			f.LocalSet(b1)
			f.padByte(str, j, slen)
			f.LocalSet(b2)
			f.LocalGet(b1)
			f.LocalGet(b2)
			f.I32Ne()
			f.If(wasm.BlockVoid)
			f.I32Const(0)
			f.LocalSet(eq)
			f.Br(2)
			f.End()
		})
		f.keep(wasm.Local(nParams-1), func() {
			f.LocalGet(eq)
			if s == selShape {
				f.LocalGet(7) // neg
				f.I32Ne()
			}
		})
	})
}

// globMatch emits the generic glob matcher: string at ptr (width from a
// local, logical length computed by stripping spaces), pattern bytes at
// pat..pat+plen. Result 0/1 into matched.
func (f *kfn) globMatch(ptr, width, pat, plen, matched wasm.Local) {
	llen := f.AddLocal(wasm.I32)
	s := f.AddLocal(wasm.I32)
	p := f.AddLocal(wasm.I32)
	star := f.AddLocal(wasm.I32)
	ss := f.AddLocal(wasm.I32)
	pc := f.AddLocal(wasm.I32)

	f.trimLen(ptr, width, llen)
	f.I32Const(0)
	f.LocalSet(s)
	f.I32Const(0)
	f.LocalSet(p)
	f.I32Const(-1)
	f.LocalSet(star)
	f.I32Const(0)
	f.LocalSet(ss)

	f.Block(wasm.BlockOf(wasm.I32))
	f.Loop(wasm.BlockOf(wasm.I32))
	f.LocalGet(s)
	f.LocalGet(llen)
	f.I32GeU()
	f.If(wasm.BlockVoid)
	// consume trailing %
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(p)
	f.LocalGet(plen)
	f.I32GeU()
	f.BrIf(1)
	f.byteAt(pat, p)
	f.I32Load8U(0)
	f.I32Const('%')
	f.I32Ne()
	f.BrIf(1)
	f.addTo(p, 1)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(p)
	f.LocalGet(plen)
	f.I32Eq()
	f.Br(2)
	f.End()
	// pc = p < plen ? pat[p] : 0
	f.LocalGet(p)
	f.LocalGet(plen)
	f.Op(wasm.OpI32LtU)
	f.If(wasm.BlockOf(wasm.I32))
	f.byteAt(pat, p)
	f.I32Load8U(0)
	f.Else()
	f.I32Const(0)
	f.End()
	f.LocalSet(pc)
	// '%'
	f.LocalGet(pc)
	f.I32Const('%')
	f.I32Eq()
	f.If(wasm.BlockVoid)
	f.LocalGet(p)
	f.LocalSet(star)
	f.LocalGet(s)
	f.LocalSet(ss)
	f.addTo(p, 1)
	f.Else()
	f.LocalGet(pc)
	f.I32Const('_')
	f.I32Eq()
	f.LocalGet(pc)
	f.byteAt(ptr, s)
	f.I32Load8U(0)
	f.I32Eq()
	f.I32Or()
	f.If(wasm.BlockVoid)
	f.addTo(s, 1)
	f.addTo(p, 1)
	f.Else()
	f.LocalGet(star)
	f.I32Const(0)
	f.Op(wasm.OpI32GeS)
	f.If(wasm.BlockVoid)
	f.LocalGet(star)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(p)
	f.LocalGet(ss)
	f.I32Const(1)
	f.I32Add()
	f.LocalTee(ss)
	f.LocalSet(s)
	f.Else()
	f.I32Const(0)
	f.Br(4)
	f.End()
	f.End()
	f.End()
	f.Br(0)
	f.End()
	f.End()
	f.LocalSet(matched)
}
