package vectorized

import "wasmdb/internal/wasm"

// This file contains the data-movement, hashing, hash-table, and sorting
// kernels. All hash tables are type-agnostic: keys are normalized to 8-byte
// words, entries store their hash, and comparisons are generic word loops —
// the pre-compiled-library design of Listing 3.

// Control block layouts (driver-managed, in guest memory):
//
//	hash table ctrl: [0]=base [4]=mask [8]=count [12]=entrySize
//	                 [16]=nKeyWords [20]=nPayloadWords
//	sort array ctrl: [0]=base [4]=count [8]=cap [12]=stride
//
// Hash-table entry: [0]=flag u32, [8]=hash u64, [16]=key words, then
// payload/aggregate words.

const (
	htOffBase    = 0
	htOffMask    = 4
	htOffCount   = 8
	htOffESize   = 12
	htOffNKW     = 16
	htOffNPW     = 20
	entryOffHash = 8
	entryOffKeys = 16
)

// storeSel writes row into out[m] and increments m.
func storeSel(f *wasm.FuncBuilder, out, m, row wasm.Local) {
	f.LocalGet(out)
	f.LocalGet(m)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
	f.LocalGet(row)
	f.I32Store(0)
	f.LocalGet(m)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(m)
}

// sel_like(selIn, n, colBase, width, batchStart, patAddr, patLen, selOut) -> n'
// The generic interpreted LIKE matcher: pattern is data, examined per row —
// the contrast to the compiled per-pattern matcher of internal/core.
func (k *kb) genSelLike() {
	f := k.b.NewFunc("sel_like", wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32},
		Results: []wasm.ValType{wasm.I32}})
	sel, n, col, width, start, pat, plen, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6), f.Param(7)
	i := f.AddLocal(wasm.I32)
	m := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	ptr := f.AddLocal(wasm.I32)
	matched := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(start)
		f.LocalGet(row)
		f.I32Add()
		f.LocalGet(width)
		f.I32Mul()
		f.LocalGet(col)
		f.I32Add()
		f.LocalSet(ptr)
		emitGlobMatch(f, ptr, width, pat, plen, matched)
		f.LocalGet(matched)
		f.If(wasm.BlockVoid)
		storeSel(f, out, m, row)
		f.End()
	})
	f.LocalGet(m)
	k.export(f, "sel_like")
}

// val_like(selIn, n, colBase, width, batchStart, patAddr, patLen, outVec)
func (k *kb) genValLike() {
	f := k.b.NewFunc("val_like", wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
	sel, n, col, width, start, pat, plen, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6), f.Param(7)
	i := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	ptr := f.AddLocal(wasm.I32)
	matched := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(start)
		f.LocalGet(row)
		f.I32Add()
		f.LocalGet(width)
		f.I32Mul()
		f.LocalGet(col)
		f.I32Add()
		f.LocalSet(ptr)
		emitGlobMatch(f, ptr, width, pat, plen, matched)
		f.LocalGet(row)
		vecAddrFromStack(f, out)
		f.LocalGet(matched)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Store(0)
	})
	k.export(f, "val_like")
}

// emitGlobMatch emits the generic glob matcher: string at ptr (width from a
// local, logical length computed by stripping spaces), pattern bytes at
// pat..pat+plen. Result 0/1 into matched.
func emitGlobMatch(f *wasm.FuncBuilder, ptr, width, pat, plen, matched wasm.Local) {
	llen := f.AddLocal(wasm.I32)
	s := f.AddLocal(wasm.I32)
	p := f.AddLocal(wasm.I32)
	star := f.AddLocal(wasm.I32)
	ss := f.AddLocal(wasm.I32)
	pc := f.AddLocal(wasm.I32)

	// llen = width; while llen > 0 && ptr[llen-1]==' ': llen--
	f.LocalGet(width)
	f.LocalSet(llen)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(llen)
	f.I32Eqz()
	f.BrIf(1)
	f.LocalGet(ptr)
	f.LocalGet(llen)
	f.I32Add()
	f.I32Const(1)
	f.I32Sub()
	f.I32Load8U(0)
	f.I32Const(32)
	f.I32Ne()
	f.BrIf(1)
	f.LocalGet(llen)
	f.I32Const(1)
	f.I32Sub()
	f.LocalSet(llen)
	f.Br(0)
	f.End()
	f.End()

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
	f.LocalGet(pat)
	f.LocalGet(p)
	f.I32Add()
	f.I32Load8U(0)
	f.I32Const('%')
	f.I32Ne()
	f.BrIf(1)
	f.LocalGet(p)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(p)
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
	f.LocalGet(pat)
	f.LocalGet(p)
	f.I32Add()
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
	f.LocalGet(p)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(p)
	f.Else()
	f.LocalGet(pc)
	f.I32Const('_')
	f.I32Eq()
	f.LocalGet(pc)
	f.LocalGet(ptr)
	f.LocalGet(s)
	f.I32Add()
	f.I32Load8U(0)
	f.I32Eq()
	f.I32Or()
	f.If(wasm.BlockVoid)
	f.LocalGet(s)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(s)
	f.LocalGet(p)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(p)
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

// sel_eqchar(selIn, n, colBase, width, batchStart, strAddr, strLen, neg, selOut) -> n'
// Padded equality of a CHAR column against a constant.
func (k *kb) genSelCmpChar() {
	f := k.b.NewFunc("sel_eqchar", wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32},
		Results: []wasm.ValType{wasm.I32}})
	sel, n, col, width, start, str, slen, neg, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6), f.Param(7), f.Param(8)
	i := f.AddLocal(wasm.I32)
	m := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	ptr := f.AddLocal(wasm.I32)
	eq := f.AddLocal(wasm.I32)
	j := f.AddLocal(wasm.I32)
	b1 := f.AddLocal(wasm.I32)
	b2 := f.AddLocal(wasm.I32)
	nmax := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(start)
		f.LocalGet(row)
		f.I32Add()
		f.LocalGet(width)
		f.I32Mul()
		f.LocalGet(col)
		f.I32Add()
		f.LocalSet(ptr)
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
		f.I32Const(0)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(j)
		f.LocalGet(nmax)
		f.I32GeU()
		f.BrIf(1)
		// b1 = j < width ? ptr[j] : ' '
		f.LocalGet(j)
		f.LocalGet(width)
		f.Op(wasm.OpI32LtU)
		f.If(wasm.BlockOf(wasm.I32))
		f.LocalGet(ptr)
		f.LocalGet(j)
		f.I32Add()
		f.I32Load8U(0)
		f.Else()
		f.I32Const(32)
		f.End()
		f.LocalSet(b1)
		// b2 = j < slen ? str[j] : ' '
		f.LocalGet(j)
		f.LocalGet(slen)
		f.Op(wasm.OpI32LtU)
		f.If(wasm.BlockOf(wasm.I32))
		f.LocalGet(str)
		f.LocalGet(j)
		f.I32Add()
		f.I32Load8U(0)
		f.Else()
		f.I32Const(32)
		f.End()
		f.LocalSet(b2)
		f.LocalGet(b1)
		f.LocalGet(b2)
		f.I32Ne()
		f.If(wasm.BlockVoid)
		f.I32Const(0)
		f.LocalSet(eq)
		f.Br(2)
		f.End()
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(j)
		f.Br(0)
		f.End()
		f.End()
		// keep row if eq != neg
		f.LocalGet(eq)
		f.LocalGet(neg)
		f.I32Ne()
		f.If(wasm.BlockVoid)
		storeSel(f, out, m, row)
		f.End()
	})
	f.LocalGet(m)
	k.export(f, "sel_eqchar")
}

// gather_<elem>(selIn, n, colBase, batchStart, outVec): out[row] holds the
// sign-extended value (f64 raw bits for floats).
func (k *kb) genGather() {
	for e := 0; e < numElems; e++ {
		name := "gather_" + elemNames[e]
		f := k.b.NewFunc(name, wasm.FuncType{
			Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
		sel, n, col, start, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4)
		i := f.AddLocal(wasm.I32)
		row := f.AddLocal(wasm.I32)
		loop(f, i, n, func() {
			selRow(f, sel, i)
			f.LocalSet(row)
			f.LocalGet(row)
			vecAddrFromStack(f, out)
			f.LocalGet(start)
			f.LocalGet(row)
			f.I32Add()
			switch e {
			case elemI32:
				f.I32Const(2)
				f.Op(wasm.OpI32Shl)
				f.LocalGet(col)
				f.I32Add()
				f.I32Load(0)
				f.Op(wasm.OpI64ExtendI32S)
			case elemI64, elemF64:
				f.I32Const(3)
				f.Op(wasm.OpI32Shl)
				f.LocalGet(col)
				f.I32Add()
				f.I64Load(0)
			case elemU8:
				f.LocalGet(col)
				f.I32Add()
				f.I32Load8U(0)
				f.Op(wasm.OpI64ExtendI32U)
			}
			f.I64Store(0)
		})
		k.export(f, name)
	}
}

// Arithmetic, comparison, cast, and boolean map kernels over positional
// 8-byte vectors. Each comes in vector-vector and vector-immediate form.
func (k *kb) genMapOps() {
	type spec struct {
		name string
		t    wasm.ValType // operand immediate type
		emit func(f *wasm.FuncBuilder)
	}
	bin := func(op wasm.Opcode) func(f *wasm.FuncBuilder) {
		return func(f *wasm.FuncBuilder) { f.Op(op) }
	}
	cmpI := func(op wasm.Opcode) func(f *wasm.FuncBuilder) {
		return func(f *wasm.FuncBuilder) {
			f.Op(op)
			f.Op(wasm.OpI64ExtendI32U)
		}
	}
	specs := []spec{
		{"add_i64", wasm.I64, bin(wasm.OpI64Add)},
		{"sub_i64", wasm.I64, bin(wasm.OpI64Sub)},
		{"mul_i64", wasm.I64, bin(wasm.OpI64Mul)},
		{"mod_i64", wasm.I64, bin(wasm.OpI64RemS)},
		{"add_f64", wasm.F64, bin(wasm.OpF64Add)},
		{"sub_f64", wasm.F64, bin(wasm.OpF64Sub)},
		{"mul_f64", wasm.F64, bin(wasm.OpF64Mul)},
		{"div_f64", wasm.F64, bin(wasm.OpF64Div)},
		{"eq_i64", wasm.I64, cmpI(wasm.OpI64Eq)},
		{"ne_i64", wasm.I64, cmpI(wasm.OpI64Ne)},
		{"lt_i64", wasm.I64, cmpI(wasm.OpI64LtS)},
		{"le_i64", wasm.I64, cmpI(wasm.OpI64LeS)},
		{"gt_i64", wasm.I64, cmpI(wasm.OpI64GtS)},
		{"ge_i64", wasm.I64, cmpI(wasm.OpI64GeS)},
		{"eq_f64", wasm.F64, cmpI(wasm.OpF64Eq)},
		{"ne_f64", wasm.F64, cmpI(wasm.OpF64Ne)},
		{"lt_f64", wasm.F64, cmpI(wasm.OpF64Lt)},
		{"le_f64", wasm.F64, cmpI(wasm.OpF64Le)},
		{"gt_f64", wasm.F64, cmpI(wasm.OpF64Gt)},
		{"ge_f64", wasm.F64, cmpI(wasm.OpF64Ge)},
		{"and", wasm.I64, bin(wasm.OpI64And)},
		{"or", wasm.I64, bin(wasm.OpI64Or)},
	}
	for _, sp := range specs {
		sp := sp
		isF := sp.t == wasm.F64
		// vector-vector
		{
			name := "map_" + sp.name + "_vv"
			f := k.b.NewFunc(name, wasm.FuncType{
				Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
			sel, n, a, bb, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4)
			i := f.AddLocal(wasm.I32)
			row := f.AddLocal(wasm.I32)
			loop(f, i, n, func() {
				selRow(f, sel, i)
				f.LocalSet(row)
				f.LocalGet(row)
				vecAddrFromStack(f, out)
				f.LocalGet(row)
				vecAddrFromStack(f, a)
				if isF {
					f.F64Load(0)
				} else {
					f.I64Load(0)
				}
				f.LocalGet(row)
				vecAddrFromStack(f, bb)
				if isF {
					f.F64Load(0)
				} else {
					f.I64Load(0)
				}
				sp.emit(f)
				if isF && !isCmpName(sp.name) {
					f.F64Store(0)
				} else {
					f.I64Store(0)
				}
			})
			k.export(f, name)
		}
		// vector-immediate
		{
			name := "map_" + sp.name + "_vi"
			f := k.b.NewFunc(name, wasm.FuncType{
				Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, sp.t, wasm.I32}})
			sel, n, a, imm, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4)
			i := f.AddLocal(wasm.I32)
			row := f.AddLocal(wasm.I32)
			loop(f, i, n, func() {
				selRow(f, sel, i)
				f.LocalSet(row)
				f.LocalGet(row)
				vecAddrFromStack(f, out)
				f.LocalGet(row)
				vecAddrFromStack(f, a)
				if isF {
					f.F64Load(0)
				} else {
					f.I64Load(0)
				}
				f.LocalGet(imm)
				sp.emit(f)
				if isF && !isCmpName(sp.name) {
					f.F64Store(0)
				} else {
					f.I64Store(0)
				}
			})
			k.export(f, name)
		}
	}

	// Unary/cast kernels.
	un := func(name string, emit func(f *wasm.FuncBuilder), loadF, storeF bool) {
		f := k.b.NewFunc(name, wasm.FuncType{
			Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
		sel, n, a, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
		i := f.AddLocal(wasm.I32)
		row := f.AddLocal(wasm.I32)
		loop(f, i, n, func() {
			selRow(f, sel, i)
			f.LocalSet(row)
			f.LocalGet(row)
			vecAddrFromStack(f, out)
			f.LocalGet(row)
			vecAddrFromStack(f, a)
			if loadF {
				f.F64Load(0)
			} else {
				f.I64Load(0)
			}
			emit(f)
			if storeF {
				f.F64Store(0)
			} else {
				f.I64Store(0)
			}
		})
		k.export(f, name)
	}
	un("map_i64_to_f64", func(f *wasm.FuncBuilder) { f.Op(wasm.OpF64ConvertI64S) }, false, true)
	un("map_not", func(f *wasm.FuncBuilder) {
		f.Op(wasm.OpI64Eqz)
		f.Op(wasm.OpI64ExtendI32U)
	}, false, false)
	un("map_wrap32", func(f *wasm.FuncBuilder) {
		f.Op(wasm.OpI32WrapI64)
		f.Op(wasm.OpI64ExtendI32S)
	}, false, false)
	k.genMapYear(un)

	// map_scale_to_f64(sel, n, a, pow, out): decimal→double.
	{
		f := k.b.NewFunc("map_scale_to_f64", wasm.FuncType{
			Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.F64, wasm.I32}})
		sel, n, a, pow, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4)
		i := f.AddLocal(wasm.I32)
		row := f.AddLocal(wasm.I32)
		loop(f, i, n, func() {
			selRow(f, sel, i)
			f.LocalSet(row)
			f.LocalGet(row)
			vecAddrFromStack(f, out)
			f.LocalGet(row)
			vecAddrFromStack(f, a)
			f.I64Load(0)
			f.Op(wasm.OpF64ConvertI64S)
			f.LocalGet(pow)
			f.F64Div()
			f.F64Store(0)
		})
		k.export(f, "map_scale_to_f64")
	}

	// map_blend(sel, n, cond, a, b, out).
	{
		f := k.b.NewFunc("map_blend", wasm.FuncType{
			Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
		sel, n, cond, a, bb, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5)
		i := f.AddLocal(wasm.I32)
		row := f.AddLocal(wasm.I32)
		loop(f, i, n, func() {
			selRow(f, sel, i)
			f.LocalSet(row)
			f.LocalGet(row)
			vecAddrFromStack(f, out)
			f.LocalGet(row)
			vecAddrFromStack(f, a)
			f.I64Load(0)
			f.LocalGet(row)
			vecAddrFromStack(f, bb)
			f.I64Load(0)
			f.LocalGet(row)
			vecAddrFromStack(f, cond)
			f.I64Load(0)
			f.Op(wasm.OpI64Eqz)
			f.I32Eqz()
			f.Select()
			f.I64Store(0)
		})
		k.export(f, "map_blend")
	}
}

func isCmpName(n string) bool {
	switch n[:2] {
	case "eq", "ne", "lt", "le", "gt", "ge":
		return true
	}
	return false
}

// hash_word(sel, n, vec, hashVec, first): xor-multiply mixing.
func (k *kb) genHashWord() {
	f := k.b.NewFunc("hash_word", wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
	sel, n, vec, hv, first := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4)
	i := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	h := f.AddLocal(wasm.I64)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(first)
		f.If(wasm.BlockOf(wasm.I64))
		f.I64Const(-3750763034362895579)
		f.Else()
		f.LocalGet(row)
		vecAddrFromStack(f, hv)
		f.I64Load(0)
		f.End()
		f.LocalSet(h)
		f.LocalGet(row)
		vecAddrFromStack(f, hv)
		f.LocalGet(h)
		f.LocalGet(row)
		vecAddrFromStack(f, vec)
		f.I64Load(0)
		f.Op(wasm.OpI64Xor)
		f.I64Const(-0x61c8864680b583eb)
		f.I64Mul()
		f.I64Store(0)
	})
	k.export(f, "hash_word")
}

// hash_char(sel, n, colBase, width, batchStart, hashVec, first)
func (k *kb) genHashChar() {
	f := k.b.NewFunc("hash_char", wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
	sel, n, col, width, start, hv, first := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
	i := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	ptr := f.AddLocal(wasm.I32)
	j := f.AddLocal(wasm.I32)
	h := f.AddLocal(wasm.I64)
	llen := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(start)
		f.LocalGet(row)
		f.I32Add()
		f.LocalGet(width)
		f.I32Mul()
		f.LocalGet(col)
		f.I32Add()
		f.LocalSet(ptr)
		f.LocalGet(first)
		f.If(wasm.BlockOf(wasm.I64))
		f.I64Const(-3750763034362895579)
		f.Else()
		f.LocalGet(row)
		vecAddrFromStack(f, hv)
		f.I64Load(0)
		f.End()
		f.LocalSet(h)
		// llen
		f.LocalGet(width)
		f.LocalSet(llen)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(llen)
		f.I32Eqz()
		f.BrIf(1)
		f.LocalGet(ptr)
		f.LocalGet(llen)
		f.I32Add()
		f.I32Const(1)
		f.I32Sub()
		f.I32Load8U(0)
		f.I32Const(32)
		f.I32Ne()
		f.BrIf(1)
		f.LocalGet(llen)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(llen)
		f.Br(0)
		f.End()
		f.End()
		// FNV over bytes
		f.I32Const(0)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(j)
		f.LocalGet(llen)
		f.I32GeU()
		f.BrIf(1)
		f.LocalGet(h)
		f.LocalGet(ptr)
		f.LocalGet(j)
		f.I32Add()
		f.I32Load8U(0)
		f.Op(wasm.OpI64ExtendI32U)
		f.Op(wasm.OpI64Xor)
		f.I64Const(1099511628211)
		f.I64Mul()
		f.LocalSet(h)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(j)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(row)
		vecAddrFromStack(f, hv)
		f.LocalGet(h)
		f.I64Store(0)
	})
	k.export(f, "hash_char")
}

// genMapYear emits EXTRACT(YEAR) over a day-number vector using the civil
// calendar algorithm with floored divisions.
func (k *kb) genMapYear(un func(name string, emit func(f *wasm.FuncBuilder), loadF, storeF bool)) {
	un("map_year", func(f *wasm.FuncBuilder) {
		// Stack holds the day number as i64.
		z := f.AddLocal(wasm.I64)
		era := f.AddLocal(wasm.I64)
		doe := f.AddLocal(wasm.I64)
		yoe := f.AddLocal(wasm.I64)
		doy := f.AddLocal(wasm.I64)
		mp := f.AddLocal(wasm.I64)
		y := f.AddLocal(wasm.I64)
		f.I64Const(719468)
		f.I64Add()
		f.LocalSet(z)
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
		f.LocalGet(z)
		f.LocalGet(era)
		f.I64Const(146097)
		f.I64Mul()
		f.I64Sub()
		f.LocalSet(doe)
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
		f.LocalGet(doy)
		f.I64Const(5)
		f.I64Mul()
		f.I64Const(2)
		f.I64Add()
		f.I64Const(153)
		f.Op(wasm.OpI64DivS)
		f.LocalSet(mp)
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
	}, false, false)
}
