package vectorized

import "wasmdb/internal/wasm"

// Value kernels: column gathers, and the arithmetic, comparison, cast and
// boolean maps over positional 8-byte vectors.

// gather_<elem>(selIn, n, colBase, batchStart, outVec): out[row] holds the
// sign-extended value (f64 raw bits for floats). The compact family writes
// the i-th selected row to out[i] instead: compact_gather(map, n, srcVec,
// outVec) from a vector, compact_gather_<elem>(map, n, colBase, batchStart,
// outVec) from a column, and compact_gather_char(map, n, colBase, width,
// batchStart, outBase) into a packed CHAR buffer.
func (k *kb) genGather(compact bool) {
	if compact {
		k.rows("compact_gather", i32s(4), idxShape, func(f *kfn) {
			f.vecAt(3, f.i)
			f.selI()
			f.vecAddr(2)
			f.I64Load(0)
			f.I64Store(0)
		})
	}
	for e := 0; e < numElems; e++ {
		name, s, out := "gather_", valShape, func(f *kfn) { f.at(4) }
		if compact {
			name, s, out = "compact_gather_", idxShape, func(f *kfn) { f.vecAt(4, f.i) }
		}
		k.rows(name+elemNames[e], i32s(5), s, func(f *kfn) {
			out(f)
			f.LocalGet(3) // batchStart
			if compact {
				f.selI()
			} else {
				f.thisRow()
			}
			f.I32Add()
			f.loadElem(e, 2, false)
			f.I64Store(0)
		})
	}
	if compact {
		k.rows("compact_gather_char", i32s(6), idxShape, func(f *kfn) {
			col, width, start, out := f.Param(2), f.Param(3), f.Param(4), f.Param(5)
			j := f.AddLocal(wasm.I32)
			src := f.AddLocal(wasm.I32)
			dst := f.AddLocal(wasm.I32)
			f.rowAddr(start, f.selI, width, col)
			f.LocalSet(src)
			f.LocalGet(f.i)
			f.LocalGet(width)
			f.I32Mul()
			f.LocalGet(out)
			f.I32Add()
			f.LocalSet(dst)
			f.copyBytes(dst, src, j, width)
		})
	}
}

// fill(sel, n, imm, out)
func (k *kb) genFill() {
	k.rows("fill", []wasm.ValType{wasm.I32, wasm.I32, wasm.I64, wasm.I32}, idxShape, func(f *kfn) {
		f.selI()
		f.vecAddr(3)
		f.LocalGet(2)
		f.I64Store(0)
	})
}

// genMapOps emits the map kernels. Each binary operation comes in
// vector-vector (map_<op>_vv(sel, n, a, b, out)) and vector-immediate
// (map_<op>_vi(sel, n, a, imm, out)) form.
func (k *kb) genMapOps() {
	type spec struct {
		name string
		t    wasm.ValType // operand immediate type
		op   wasm.Opcode
		cmp  bool // produces 0/1
	}
	specs := []spec{
		{"add_i64", wasm.I64, wasm.OpI64Add, false},
		{"sub_i64", wasm.I64, wasm.OpI64Sub, false},
		{"mul_i64", wasm.I64, wasm.OpI64Mul, false},
		{"mod_i64", wasm.I64, wasm.OpI64RemS, false},
		{"add_f64", wasm.F64, wasm.OpF64Add, false},
		{"sub_f64", wasm.F64, wasm.OpF64Sub, false},
		{"mul_f64", wasm.F64, wasm.OpF64Mul, false},
		{"div_f64", wasm.F64, wasm.OpF64Div, false},
		{"eq_i64", wasm.I64, wasm.OpI64Eq, true},
		{"ne_i64", wasm.I64, wasm.OpI64Ne, true},
		{"lt_i64", wasm.I64, wasm.OpI64LtS, true},
		{"le_i64", wasm.I64, wasm.OpI64LeS, true},
		{"gt_i64", wasm.I64, wasm.OpI64GtS, true},
		{"ge_i64", wasm.I64, wasm.OpI64GeS, true},
		{"eq_f64", wasm.F64, wasm.OpF64Eq, true},
		{"ne_f64", wasm.F64, wasm.OpF64Ne, true},
		{"lt_f64", wasm.F64, wasm.OpF64Lt, true},
		{"le_f64", wasm.F64, wasm.OpF64Le, true},
		{"gt_f64", wasm.F64, wasm.OpF64Gt, true},
		{"ge_f64", wasm.F64, wasm.OpF64Ge, true},
		{"and", wasm.I64, wasm.OpI64And, false},
		{"or", wasm.I64, wasm.OpI64Or, false},
	}
	for _, sp := range specs {
		isF := sp.t == wasm.F64
		for _, vv := range []bool{true, false} {
			name, second := "map_"+sp.name+"_vi", sp.t
			if vv {
				name, second = "map_"+sp.name+"_vv", wasm.I32
			}
			k.rows(name, []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, second, wasm.I32}, valShape, func(f *kfn) {
				f.at(4)
				f.at(2)
				f.loadWord(isF)
				if vv {
					f.at(3)
					f.loadWord(isF)
				} else {
					f.LocalGet(3)
				}
				f.Op(sp.op)
				if sp.cmp {
					f.Op(wasm.OpI64ExtendI32U)
				}
				f.storeWord(isF && !sp.cmp)
			})
		}
	}

	k.genUnary("map_i64_to_f64", false, true, func(f *kfn) { f.Op(wasm.OpF64ConvertI64S) })
	k.genUnary("map_not", false, false, func(f *kfn) {
		f.Op(wasm.OpI64Eqz)
		f.Op(wasm.OpI64ExtendI32U)
	})
	k.genUnary("map_wrap32", false, false, func(f *kfn) {
		f.Op(wasm.OpI32WrapI64)
		f.Op(wasm.OpI64ExtendI32S)
	})
	k.genUnary("map_year", false, false, emitYear)

	// map_scale_to_f64(sel, n, a, pow, out): decimal→double.
	k.rows("map_scale_to_f64", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.F64, wasm.I32}, valShape, func(f *kfn) {
		f.at(4)
		f.at(2)
		f.I64Load(0)
		f.Op(wasm.OpF64ConvertI64S)
		f.LocalGet(3)
		f.F64Div()
		f.F64Store(0)
	})

	// map_blend(sel, n, cond, a, b, out).
	k.rows("map_blend", i32s(6), valShape, func(f *kfn) {
		f.at(5)
		f.at(3)
		f.I64Load(0)
		f.at(4)
		f.I64Load(0)
		f.at(2)
		f.I64Load(0)
		f.Op(wasm.OpI64Eqz)
		f.I32Eqz()
		f.Select()
		f.I64Store(0)
	})
}

// genUnary emits name(sel, n, a, out): out[row] = op(a[row]), loading and
// storing the slots as f64 where loadF/storeF say so.
func (k *kb) genUnary(name string, loadF, storeF bool, op func(f *kfn)) {
	k.rows(name, i32s(4), valShape, func(f *kfn) {
		f.at(3)
		f.at(2)
		f.loadWord(loadF)
		op(f)
		f.storeWord(storeF)
	})
}

// canon_f64(sel, n, src, dst): copy a float vector with -0.0 folded into
// +0.0 (v + 0.0, branch-free; NaN and every other value pass through). Join
// key hashing runs over the canonical copy so F64Eq-equal keys hash alike.
func (k *kb) genCanonF64() {
	k.genUnary("canon_f64", true, true, func(f *kfn) {
		f.F64Const(0)
		f.F64Add()
	})
}

// emitYear emits EXTRACT(YEAR) of the day number (i64) on the stack using
// the civil calendar algorithm with floored divisions.
func emitYear(f *kfn) {
	z := f.AddLocal(wasm.I64)
	era := f.AddLocal(wasm.I64)
	doe := f.AddLocal(wasm.I64)
	yoe := f.AddLocal(wasm.I64)
	doy := f.AddLocal(wasm.I64)
	mp := f.AddLocal(wasm.I64)
	y := f.AddLocal(wasm.I64)
	div := func(c int64) {
		f.I64Const(c)
		f.Op(wasm.OpI64DivS)
	}
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
	div(146097)
	f.LocalSet(era)
	f.LocalGet(z)
	f.LocalGet(era)
	f.I64Const(146097)
	f.I64Mul()
	f.I64Sub()
	f.LocalSet(doe)
	f.LocalGet(doe)
	f.LocalGet(doe)
	div(1460)
	f.I64Sub()
	f.LocalGet(doe)
	div(36524)
	f.I64Add()
	f.LocalGet(doe)
	div(146096)
	f.I64Sub()
	div(365)
	f.LocalSet(yoe)
	f.LocalGet(doe)
	f.LocalGet(yoe)
	f.I64Const(365)
	f.I64Mul()
	f.LocalGet(yoe)
	div(4)
	f.I64Add()
	f.LocalGet(yoe)
	div(100)
	f.I64Sub()
	f.I64Sub()
	f.LocalSet(doy)
	f.LocalGet(doy)
	f.I64Const(5)
	f.I64Mul()
	f.I64Const(2)
	f.I64Add()
	div(153)
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
}
