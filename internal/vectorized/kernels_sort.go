package vectorized

import "wasmdb/internal/wasm"

// Generic sorting (§5.1's "linking with a pre-compiled library" design):
// order-preserving key bytes are encoded per type, then a generic quicksort
// compares keys byte-by-byte through a shared comparison routine and moves
// elements with a generic byte-copy — one function call per comparison and
// per move, exactly the Θ(n log n) callback cost the paper contrasts with
// the specialized generated sort of internal/core.

// Sort-array ctrl block: [0]=base [4]=count [8]=cap [12]=stride.
const (
	arrOffBase   = 0
	arrOffCount  = 4
	arrOffCap    = 8
	arrOffStride = 12
)

// arr_read_char(n, base, stride, off, nBytes, startRow, outBase)
func (k *kb) genArrReadChar() {
	k.rows("arr_read_char", i32s(7), denseShape, func(f *kfn) {
		base, stride, off, nb, startRow, out := f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
		j := f.AddLocal(wasm.I32)
		src := f.AddLocal(wasm.I32)
		dst := f.AddLocal(wasm.I32)
		f.arrSlot(base, stride, off, startRow)
		f.LocalSet(src)
		f.packedDst(dst, nb, out)
		f.copyBytes(dst, src, j, nb)
	})
}

// elemAt pushes base + idx*stride.
func (f *kfn) elemAt(idx, stride, base wasm.Local) {
	f.LocalGet(idx)
	f.LocalGet(stride)
	f.I32Mul()
	f.LocalGet(base)
	f.I32Add()
}

// callCmp pushes cmp_bytes(a, b, keyLen) >= 0.
func (f *kfn) callCmp(cb uint32, a, b, keyLen wasm.Local) {
	f.LocalGet(a)
	f.LocalGet(b)
	f.LocalGet(keyLen)
	f.Call(cb)
	f.I32Const(0)
	f.Op(wasm.OpI32GeS)
}

// callCopy emits copy_bytes(dst, <pushed src>, n) with src pushed by src.
func (f *kfn) callCopy(cp uint32, dst wasm.Local, src func(), n wasm.Local) {
	f.LocalGet(dst)
	src()
	f.LocalGet(n)
	f.Call(cp)
}

func (k *kb) genSortKernels() {
	// copy_bytes(dst, src, n) — the generic memcpy (§3.1: none exists
	// otherwise).
	cpf := k.fn("copy_bytes", i32s(3))
	{
		f := cpf
		dst, src, n := f.Param(0), f.Param(1), f.Param(2)
		i := f.AddLocal(wasm.I32)
		f.loop(i, n, func() {
			f.byteAt(dst, i)
			f.byteAt(src, i)
			f.I32Load8U(0)
			f.I32Store8(0)
		})
	}
	cp := cpf.Index

	// cmp_bytes(a, b, n) -> i32 — the generic comparison callback.
	cbf := k.fn("cmp_bytes", i32s(3), wasm.I32)
	{
		f := cbf
		a, b, n := f.Param(0), f.Param(1), f.Param(2)
		i := f.AddLocal(wasm.I32)
		d := f.AddLocal(wasm.I32)
		f.Block(wasm.BlockOf(wasm.I32))
		f.Loop(wasm.BlockOf(wasm.I32))
		f.I32Const(0)
		f.LocalGet(i)
		f.LocalGet(n)
		f.I32GeU()
		f.BrIf(1)
		f.Drop()
		f.byteAt(a, i)
		f.I32Load8U(0)
		f.byteAt(b, i)
		f.I32Load8U(0)
		f.I32Sub()
		f.LocalTee(d)
		f.LocalGet(d)
		f.BrIf(1)
		f.Drop()
		f.addTo(i, 1)
		f.Br(0)
		f.End()
		f.End()
	}
	cb := cbf.Index

	// arr_reserve(ctrl, n) -> startIdx, growing by doubling via copy_bytes.
	{
		f := k.fn("arr_reserve", i32s(2), wasm.I32)
		ctrl, n := f.Param(0), f.Param(1)
		start := f.AddLocal(wasm.I32)
		newCap := f.AddLocal(wasm.I32)
		newBase := f.AddLocal(wasm.I32)
		f.ctrlField(start, ctrl, arrOffCount)
		// while count + n > cap: double
		f.LocalGet(start)
		f.LocalGet(n)
		f.I32Add()
		f.LocalGet(ctrl)
		f.I32Load(arrOffCap)
		f.Op(wasm.OpI32GtU)
		f.If(wasm.BlockVoid)
		f.ctrlField(newCap, ctrl, arrOffCap)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(start)
		f.LocalGet(n)
		f.I32Add()
		f.LocalGet(newCap)
		f.Op(wasm.OpI32LeU)
		f.BrIf(1)
		f.LocalGet(newCap)
		f.I32Const(1)
		f.Op(wasm.OpI32Shl)
		f.LocalSet(newCap)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(newCap)
		f.LocalGet(ctrl)
		f.I32Load(arrOffStride)
		f.I32Mul()
		f.Call(k.allocIdx)
		f.LocalSet(newBase)
		f.LocalGet(newBase)
		f.LocalGet(ctrl)
		f.I32Load(arrOffBase)
		f.LocalGet(start)
		f.LocalGet(ctrl)
		f.I32Load(arrOffStride)
		f.I32Mul()
		f.Call(cp)
		f.LocalGet(ctrl)
		f.LocalGet(newBase)
		f.I32Store(arrOffBase)
		f.LocalGet(ctrl)
		f.LocalGet(newCap)
		f.I32Store(arrOffCap)
		f.End()
		f.LocalGet(ctrl)
		f.LocalGet(start)
		f.LocalGet(n)
		f.I32Add()
		f.I32Store(arrOffCount)
		f.LocalGet(start)
		f.export()
	}

	// sk_encode_i64 / sk_encode_f64(sel, n, vec, base, stride, off,
	// startIdx, desc)
	for _, flt := range []bool{false, true} {
		name := "sk_encode_i64"
		if flt {
			name = "sk_encode_f64"
		}
		k.rows(name, i32s(8), idxShape, func(f *kfn) {
			base, stride, off, startIdx, desc := f.Param(3), f.Param(4), f.Param(5), f.Param(6), f.Param(7)
			u := f.AddLocal(wasm.I64)
			addr := f.AddLocal(wasm.I32)
			f.selI()
			f.vecAddr(2)
			f.I64Load(0)
			f.LocalSet(u)
			if !flt {
				// u ^= 1<<63 (sign flip → unsigned byte order)
				f.LocalGet(u)
				f.I64Const(-0x8000000000000000)
				f.Op(wasm.OpI64Xor)
				f.LocalSet(u)
			} else {
				// negative: flip all bits; positive: set sign bit.
				f.LocalGet(u)
				f.I64Const(-1)
				f.Op(wasm.OpI64Xor)
				f.LocalGet(u)
				f.I64Const(-0x8000000000000000)
				f.Op(wasm.OpI64Or)
				f.LocalGet(u)
				f.I64Const(0)
				f.Op(wasm.OpI64LtS)
				f.Select()
				f.LocalSet(u)
			}
			f.LocalGet(desc)
			f.If(wasm.BlockVoid)
			f.LocalGet(u)
			f.I64Const(-1)
			f.Op(wasm.OpI64Xor)
			f.LocalSet(u)
			f.End()
			f.arrSlot(base, stride, off, startIdx)
			f.LocalSet(addr)
			// store u big-endian at addr
			for byteIdx := 0; byteIdx < 8; byteIdx++ {
				f.LocalGet(addr)
				f.LocalGet(u)
				f.I64Const(int64(56 - 8*byteIdx))
				f.Op(wasm.OpI64ShrU)
				f.Op(wasm.OpI32WrapI64)
				f.I32Store8(uint32(byteIdx))
			}
		})
	}

	// sk_encode_char(sel, n, colBase, width, batchStart, base, stride, off,
	// nBytes, startIdx, desc)
	k.rows("sk_encode_char", i32s(11), idxShape, func(f *kfn) {
		col, width, start := f.Param(2), f.Param(3), f.Param(4)
		base, stride, off, nBytes, startIdx, desc := f.Param(5), f.Param(6), f.Param(7), f.Param(8), f.Param(9), f.Param(10)
		j := f.AddLocal(wasm.I32)
		src := f.AddLocal(wasm.I32)
		dst := f.AddLocal(wasm.I32)
		bb := f.AddLocal(wasm.I32)
		f.rowAddr(start, f.selI, width, col)
		f.LocalSet(src)
		f.arrSlot(base, stride, off, startIdx)
		f.LocalSet(dst)
		f.forRange(j, nBytes, 1, func() {
			f.padByte(src, j, width)
			f.LocalSet(bb)
			f.LocalGet(desc)
			f.If(wasm.BlockVoid)
			f.I32Const(255)
			f.LocalGet(bb)
			f.I32Sub()
			f.LocalSet(bb)
			f.End()
			f.byteAt(dst, j)
			f.LocalGet(bb)
			f.I32Store8(0)
		})
	})

	// arr_store_word(sel, n, vec, base, stride, off, startIdx)
	k.rows("arr_store_word", i32s(7), idxShape, func(f *kfn) {
		f.arrSlot(3, 4, 5, 6)
		f.selI()
		f.vecAddr(2)
		f.I64Load(0)
		f.I64Store(0)
	})

	// arr_store_char(sel, n, colBase, width, batchStart, base, stride, off,
	// startIdx) — raw char payload.
	k.rows("arr_store_char", i32s(9), idxShape, func(f *kfn) {
		col, width, start := f.Param(2), f.Param(3), f.Param(4)
		f.arrSlot(5, 6, 7, 8)
		f.rowAddr(start, f.selI, width, col)
		f.LocalGet(width)
		f.Call(cp)
	})

	// arr_read_word(n, base, stride, off, startRow, outVec)
	k.rows("arr_read_word", i32s(6), denseShape, func(f *kfn) {
		f.vecAt(5, f.i)
		f.arrSlot(1, 2, 3, 4)
		f.I64Load(0)
		f.I64Store(0)
	})

	// isort_g(base, lo, hi, stride, keyLen, scratch)
	isort := k.fn("isort_g", i32s(6))
	{
		f := isort
		base, lo, hi, stride, keyLen, scratch := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5)
		kk := f.AddLocal(wasm.I32)
		m := f.AddLocal(wasm.I32)
		cur := f.AddLocal(wasm.I32)
		prev := f.AddLocal(wasm.I32)
		eAddr := func(idx wasm.Local) { f.elemAt(idx, stride, base) }
		f.LocalGet(lo)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(kk)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(kk)
		f.LocalGet(hi)
		f.Op(wasm.OpI32GeS)
		f.BrIf(1)
		f.callCopy(cp, scratch, func() { eAddr(kk) }, stride)
		f.LocalGet(kk)
		f.LocalSet(m)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(m)
		f.LocalGet(lo)
		f.Op(wasm.OpI32LeS)
		f.BrIf(1)
		eAddr(m)
		f.I32Const(0)
		f.I32Add() // keep shape; prev = &elem(m-1)
		f.Drop()
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.LocalGet(stride)
		f.I32Mul()
		f.LocalGet(base)
		f.I32Add()
		f.LocalSet(prev)
		// if !(scratch < prev) break
		f.callCmp(cb, scratch, prev, keyLen)
		f.BrIf(1)
		eAddr(m)
		f.LocalSet(cur)
		f.callCopy(cp, cur, func() { f.LocalGet(prev) }, stride)
		f.addTo(m, -1)
		f.Br(0)
		f.End()
		f.End()
		eAddr(m)
		f.LocalSet(cur)
		f.callCopy(cp, cur, func() { f.LocalGet(scratch) }, stride)
		f.addTo(kk, 1)
		f.Br(0)
		f.End()
		f.End()
	}

	// qsort_g(base, lo, hi, stride, keyLen, pivotScratch, isortScratch)
	qs := k.fn("qsort_g", i32s(7))
	{
		f := qs
		base, lo0, hi0, stride, keyLen, pivS, isoS := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
		lo := f.AddLocal(wasm.I32)
		hi := f.AddLocal(wasm.I32)
		i := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		pi := f.AddLocal(wasm.I32)
		pj := f.AddLocal(wasm.I32)
		w := f.AddLocal(wasm.I32)
		t8 := f.AddLocal(wasm.I64)
		// jPlus1 pushes j + 1.
		jPlus1 := func() {
			f.LocalGet(j)
			f.I32Const(1)
			f.I32Add()
		}
		// recurse sorts [from, to) of the same array.
		recurse := func(from, to func()) {
			f.LocalGet(base)
			from()
			to()
			f.LocalGet(stride)
			f.LocalGet(keyLen)
			f.LocalGet(pivS)
			f.LocalGet(isoS)
			f.CallBuilder(qs.FuncBuilder)
		}
		f.LocalGet(lo0)
		f.LocalSet(lo)
		f.LocalGet(hi0)
		f.LocalSet(hi)

		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(hi)
		f.LocalGet(lo)
		f.I32Sub()
		f.I32Const(16)
		f.Op(wasm.OpI32LeS)
		f.BrIf(1)
		// pivot = elem(lo + (hi-lo)/2) → pivS
		f.callCopy(cp, pivS, func() {
			f.LocalGet(lo)
			f.LocalGet(hi)
			f.LocalGet(lo)
			f.I32Sub()
			f.I32Const(1)
			f.Op(wasm.OpI32ShrU)
			f.I32Add()
			f.LocalGet(stride)
			f.I32Mul()
			f.LocalGet(base)
			f.I32Add()
		}, stride)
		f.LocalGet(lo)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(i)
		f.LocalGet(hi)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		// do i++ while elem(i) < pivot; do j-- while pivot < elem(j)
		for _, side := range []struct {
			idx, p wasm.Local
			step   int32
		}{{i, pi, 1}, {j, pj, -1}} {
			f.Block(wasm.BlockVoid)
			f.Loop(wasm.BlockVoid)
			f.addTo(side.idx, side.step)
			f.elemAt(side.idx, stride, base)
			f.LocalSet(side.p)
			if side.step > 0 {
				f.callCmp(cb, pi, pivS, keyLen)
			} else {
				f.callCmp(cb, pivS, pj, keyLen)
			}
			f.BrIf(1)
			f.Br(0)
			f.End()
			f.End()
		}
		f.LocalGet(i)
		f.LocalGet(j)
		f.Op(wasm.OpI32GeS)
		f.BrIf(1)
		// swap (word loop; stride is 8-aligned)
		f.forRange(w, stride, 8, func() {
			f.byteAt(pi, w)
			f.I64Load(0)
			f.LocalSet(t8)
			f.byteAt(pi, w)
			f.byteAt(pj, w)
			f.I64Load(0)
			f.I64Store(0)
			f.byteAt(pj, w)
			f.LocalGet(t8)
			f.I64Store(0)
		})
		f.Br(0)
		f.End()
		f.End()
		// recurse smaller side
		jPlus1()
		f.LocalGet(lo)
		f.I32Sub()
		f.LocalGet(hi)
		jPlus1()
		f.I32Sub()
		f.Op(wasm.OpI32LeS)
		f.If(wasm.BlockVoid)
		recurse(func() { f.LocalGet(lo) }, jPlus1)
		jPlus1()
		f.LocalSet(lo)
		f.Else()
		recurse(jPlus1, func() { f.LocalGet(hi) })
		jPlus1()
		f.LocalSet(hi)
		f.End()
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(base)
		f.LocalGet(lo)
		f.LocalGet(hi)
		f.LocalGet(stride)
		f.LocalGet(keyLen)
		f.LocalGet(isoS)
		f.Call(isort.Index)
		f.export()
	}
}
