package vectorized

import "wasmdb/internal/wasm"

// Hashing, key normalization, and the generic hash tables of grouping and
// joins. All hash tables are type-agnostic: keys are normalized to 8-byte
// words, entries store their hash, and comparisons are generic word loops —
// the pre-compiled-library design of Listing 3.

// Control block layout (driver-managed, in guest memory):
//
//	hash table ctrl: [0]=base [4]=mask [8]=count [12]=entrySize
//	                 [16]=nKeyWords [20]=nPayloadWords
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

// seedHash sets h to the hash seed for the first key column (param first
// non-zero) and to the running hash hv[row] for the others.
func (f *kfn) seedHash(h, hv, first wasm.Local) {
	f.LocalGet(first)
	f.If(wasm.BlockOf(wasm.I64))
	f.I64Const(-3750763034362895579)
	f.Else()
	f.at(hv)
	f.I64Load(0)
	f.End()
	f.LocalSet(h)
}

// hash_word(sel, n, vec, hashVec, first): xor-multiply mixing.
func (k *kb) genHashWord() {
	k.rows("hash_word", i32s(5), valShape, func(f *kfn) {
		vec, hv := f.Param(2), f.Param(3)
		h := f.AddLocal(wasm.I64)
		f.seedHash(h, hv, 4)
		f.at(hv)
		f.LocalGet(h)
		f.at(vec)
		f.I64Load(0)
		f.Op(wasm.OpI64Xor)
		f.I64Const(-0x61c8864680b583eb)
		f.I64Mul()
		f.I64Store(0)
	})
}

// hash_char(sel, n, colBase, width, batchStart, hashVec, first): FNV over
// the value without its trailing spaces.
func (k *kb) genHashChar() {
	k.rows("hash_char", i32s(7), valShape, func(f *kfn) {
		col, width, start, hv := f.Param(2), f.Param(3), f.Param(4), f.Param(5)
		ptr := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		h := f.AddLocal(wasm.I64)
		llen := f.AddLocal(wasm.I32)
		f.charAt(ptr, col, width, start)
		f.seedHash(h, hv, 6)
		f.trimLen(ptr, width, llen)
		f.forRange(j, llen, 1, func() {
			f.LocalGet(h)
			f.byteAt(ptr, j)
			f.I32Load8U(0)
			f.Op(wasm.OpI64ExtendI32U)
			f.Op(wasm.OpI64Xor)
			f.I64Const(1099511628211)
			f.I64Mul()
			f.LocalSet(h)
		})
		f.at(hv)
		f.LocalGet(h)
		f.I64Store(0)
	})
}

// kw_word(sel, n, vec, kwBase, nKW, wordIdx): key word from a value vector.
func (k *kb) genKwWord() {
	k.rows("kw_word", i32s(6), valShape, func(f *kfn) {
		// kw + (row*nkw + wi)*8
		f.thisRow()
		f.LocalGet(4)
		f.I32Mul()
		f.LocalGet(5)
		f.I32Add()
		f.vecAddr(3)
		f.at(2)
		f.I64Load(0)
		f.I64Store(0)
	})
}

// kw_char(sel, n, colBase, width, batchStart, kwBase, nKW, byteOff, nBytes):
// copies the padded CHAR value into the key-word area, space-filling the
// reserved nBytes. Over a compact batch colBase is the packed buffer and
// batchStart 0.
func (k *kb) genKwChar() {
	k.rows("kw_char", i32s(9), valShape, func(f *kfn) {
		col, width, start, kw, nkw, boff, nbytes := f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6), f.Param(7), f.Param(8)
		src := f.AddLocal(wasm.I32)
		dst := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		f.charAt(src, col, width, start)
		// dst = kw + row*nkw*8 + byteOff
		f.thisRow()
		f.LocalGet(nkw)
		f.I32Mul()
		f.vecAddr(kw)
		f.LocalGet(boff)
		f.I32Add()
		f.LocalSet(dst)
		f.padBytes(dst, src, j, nbytes, width)
	})
}

// htGrow emits the generic doubling/rehash for the ctrl block in local
// ctrl (uses stored hashes; word-wise entry copy).
func (f *kfn) htGrow(ctrl wasm.Local) {
	oldBase := f.AddLocal(wasm.I32)
	oldCap := f.AddLocal(wasm.I32)
	esize := f.AddLocal(wasm.I32)
	newBase := f.AddLocal(wasm.I32)
	newMask := f.AddLocal(wasm.I32)
	s := f.AddLocal(wasm.I32)
	e := f.AddLocal(wasm.I32)
	ne := f.AddLocal(wasm.I32)
	j := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)
	entryAt := func(dst, base, idx wasm.Local) {
		f.LocalGet(base)
		f.LocalGet(idx)
		f.LocalGet(esize)
		f.I32Mul()
		f.I32Add()
		f.LocalSet(dst)
	}

	f.ctrlField(oldBase, ctrl, htOffBase)
	f.LocalGet(ctrl)
	f.I32Load(htOffMask)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(oldCap)
	f.ctrlField(esize, ctrl, htOffESize)
	f.LocalGet(oldCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.LocalGet(esize)
	f.I32Mul()
	f.Call(f.k.allocIdx)
	f.LocalSet(newBase)
	f.LocalGet(oldCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(1)
	f.I32Sub()
	f.LocalSet(newMask)

	f.forRange(s, oldCap, 1, func() {
		entryAt(e, oldBase, s)
		f.LocalGet(e)
		f.I32Load(0)
		f.If(wasm.BlockVoid)
		// j = storedHash & newMask; find empty; word-copy entry
		f.LocalGet(e)
		f.I64Load(entryOffHash)
		f.Op(wasm.OpI32WrapI64)
		f.LocalGet(newMask)
		f.I32And()
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		entryAt(ne, newBase, j)
		f.LocalGet(ne)
		f.I32Load(0)
		f.I32Eqz()
		f.BrIf(1)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalGet(newMask)
		f.I32And()
		f.LocalSet(j)
		f.Br(0)
		f.End()
		f.End()
		f.forRange(w, esize, 8, func() {
			f.byteAt(ne, w)
			f.byteAt(e, w)
			f.I64Load(0)
			f.I64Store(0)
		})
		f.End()
	})
	f.LocalGet(ctrl)
	f.LocalGet(newBase)
	f.I32Store(htOffBase)
	f.LocalGet(ctrl)
	f.LocalGet(newMask)
	f.I32Store(htOffMask)
}

// ensureCapacity grows until (count + n)*4 < cap*3.
func (f *kfn) ensureCapacity(ctrl, n wasm.Local) {
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(ctrl)
	f.I32Load(htOffCount)
	f.LocalGet(n)
	f.I32Add()
	f.I32Const(4)
	f.I32Mul()
	f.LocalGet(ctrl)
	f.I32Load(htOffMask)
	f.I32Const(1)
	f.I32Add()
	f.I32Const(3)
	f.I32Mul()
	f.Op(wasm.OpI32LtU)
	f.BrIf(1)
	f.htGrow(ctrl)
	f.Br(0)
	f.End()
	f.End()
}

// keyWordsEqual pushes 1 if the nkw key words of row in the key-word area
// equal the entry's stored keys (generic word loop).
func (f *kfn) keyWordsEqual(kw, row, nkw, entry wasm.Local) {
	eq := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)
	f.I32Const(1)
	f.LocalSet(eq)
	f.forRange(w, nkw, 1, func() {
		f.kwAddr(kw, row, nkw, w)
		f.I64Load(0)
		f.LocalGet(entry)
		f.LocalGet(w)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.I64Load(entryOffKeys)
		f.Op(wasm.OpI64Ne)
		f.If(wasm.BlockVoid)
		f.I32Const(0)
		f.LocalSet(eq)
		f.Br(2)
		f.End()
	})
	f.LocalGet(eq)
}

// group_locate(sel, n, hashVec, kwBase, ctrl, ptrsOut, newSelOut) -> nNew
// join_insert(sel, n, hashVec, kwBase, ctrl, ptrsOut)
//
// One probe-and-claim: each row walks the cluster from its hash's slot. A
// group stops at the entry holding its key, or claims the first empty slot
// for a new key and lists the row in newSel; a join tuple always claims the
// first empty slot, so duplicates coexist. Either way ptrs[row] is the
// entry, for the aggregate and payload kernels that follow.
func (k *kb) genInsert(group bool) {
	name, params, res := "join_insert", i32s(6), []wasm.ValType(nil)
	if group {
		name, params, res = "group_locate", i32s(7), []wasm.ValType{wasm.I32}
	}
	f := k.fn(name, params, res...)
	hv, kw, ctrl, ptrs := f.Param(2), f.Param(3), f.Param(4), f.Param(5)
	f.i = f.AddLocal(wasm.I32)
	f.row = f.AddLocal(wasm.I32)
	h := f.AddLocal(wasm.I64)
	idx := f.AddLocal(wasm.I32)
	e := f.AddLocal(wasm.I32)
	var nNew wasm.Local
	if group {
		nNew = f.AddLocal(wasm.I32)
	}
	nkw := f.AddLocal(wasm.I32)
	esize := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)
	var prevH wasm.Local
	if !group {
		prevH = f.AddLocal(wasm.I64)
	}

	// claim: flag, hash, key words; count++
	claim := func() {
		f.LocalGet(e)
		f.I32Const(1)
		f.I32Store(0)
		f.LocalGet(e)
		f.LocalGet(h)
		f.I64Store(entryOffHash)
		f.forRange(w, nkw, 1, func() {
			f.LocalGet(e)
			f.LocalGet(w)
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.I32Add()
			f.kwAddr(kw, f.row, nkw, w)
			f.I64Load(0)
			f.I64Store(entryOffKeys)
		})
		f.LocalGet(ctrl)
		f.LocalGet(ctrl)
		f.I32Load(htOffCount)
		f.I32Const(1)
		f.I32Add()
		f.I32Store(htOffCount)
	}

	f.ensureCapacity(ctrl, 1)
	f.ctrlField(nkw, ctrl, htOffNKW)
	f.ctrlField(esize, ctrl, htOffESize)
	f.eachRow(func() {
		f.at(hv)
		f.I64Load(0)
		f.LocalSet(h)
		if group {
			f.homeSlot(idx, h, ctrl)
		} else {
			// A tuple whose hash repeats its predecessor's starts behind the
			// slot that one took. Nothing is deleted or rehashed within a
			// call, so every slot from the hash's home to there is taken:
			// the walk ends on the same slot, but a run of equal keys costs
			// one step per tuple instead of one walk of the run.
			f.LocalGet(h)
			f.LocalGet(prevH)
			f.Op(wasm.OpI64Eq)
			f.LocalGet(f.i)
			f.I32Const(0)
			f.Op(wasm.OpI32GtS)
			f.I32And()
			f.If(wasm.BlockVoid)
			f.nextSlot(idx, ctrl)
			f.Else()
			f.homeSlot(idx, h, ctrl)
			f.End()
			f.LocalGet(h)
			f.LocalSet(prevH)
		}
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.slotEntry(e, ctrl, idx, esize)
		f.LocalGet(e)
		f.I32Load(0)
		f.I32Eqz()
		if group {
			f.If(wasm.BlockVoid)
			claim()
			f.storeSel(6, nNew, f.row)
			f.Br(2) // located
			f.End()
			// occupied: hash match + key words equal?
			f.LocalGet(e)
			f.I64Load(entryOffHash)
			f.LocalGet(h)
			f.Op(wasm.OpI64Eq)
			f.If(wasm.BlockVoid)
			f.keyWordsEqual(kw, f.row, nkw, e)
			f.BrIf(2) // located
			f.End()
		} else {
			f.BrIf(1) // empty slot
		}
		f.nextSlot(idx, ctrl)
		f.Br(0)
		f.End()
		f.End()
		if !group {
			claim()
		}
		f.storePtr(ptrs, f.row, e)
	})
	if group {
		f.LocalGet(nNew)
	}
	f.export()
}

// Aggregate update kernels over located entry pointers (positional).
// agg_count(sel, n, ptrs, slotOff); agg_{sum,min,max}_{i64,f64}(sel, n,
// ptrs, vals, slotOff); agg_seed(sel, n, ptrs, vals, slotOff).
func (k *kb) genAggKernels() {
	k.rows("agg_count", i32s(4), valShape, func(f *kfn) {
		e := f.AddLocal(wasm.I32)
		f.entryField(e, 2, f.row, 3)
		f.LocalGet(e)
		f.LocalGet(e)
		f.I64Load(0)
		f.I64Const(1)
		f.I64Add()
		f.I64Store(0)
	})
	mk := func(name string, emit func(f *kfn, slot, v wasm.Local)) {
		k.rows(name, i32s(5), valShape, func(f *kfn) {
			slot := f.AddLocal(wasm.I32)
			v := f.AddLocal(wasm.I64)
			f.entryField(slot, 2, f.row, 4)
			f.at(3)
			f.I64Load(0)
			f.LocalSet(v)
			emit(f, slot, v)
		})
	}
	mk("agg_sum_i64", func(f *kfn, slot, v wasm.Local) {
		f.LocalGet(slot)
		f.LocalGet(slot)
		f.I64Load(0)
		f.LocalGet(v)
		f.I64Add()
		f.I64Store(0)
	})
	mk("agg_sum_f64", func(f *kfn, slot, v wasm.Local) {
		f.LocalGet(slot)
		f.LocalGet(slot)
		f.F64Load(0)
		f.LocalGet(v)
		f.Op(wasm.OpF64ReinterpretI64)
		f.F64Add()
		f.F64Store(0)
	})
	mmk := func(name string, cmp wasm.Opcode, flt bool) {
		mk(name, func(f *kfn, slot, v wasm.Local) {
			f.LocalGet(slot)
			f.LocalGet(v)
			f.LocalGet(slot)
			f.I64Load(0)
			f.LocalGet(v)
			if flt {
				f.Op(wasm.OpF64ReinterpretI64)
			}
			f.LocalGet(slot)
			f.loadWord(flt)
			f.Op(cmp)
			f.Select()
			f.I64Store(0)
		})
	}
	mmk("agg_min_i64", wasm.OpI64LtS, false)
	mmk("agg_max_i64", wasm.OpI64GtS, false)
	mmk("agg_min_f64", wasm.OpF64Lt, true)
	mmk("agg_max_f64", wasm.OpF64Gt, true)
	mk("agg_seed", func(f *kfn, slot, v wasm.Local) {
		f.LocalGet(slot)
		f.LocalGet(v)
		f.I64Store(0)
	})
}

// join_probe(sel, n, hashVec, kwBase, ctrl, state, outRowSel, outPtrs,
// maxOut) -> i64 packed(nOut<<32 | done). The 8-byte state block holds
// (i, slot) so a batch can resume when the output buffer fills; the driver
// zeroes state (slot sentinel ^0) before the first call and loops until
// done == 1.
func (k *kb) genJoinProbe() {
	f := k.fn("join_probe", i32s(9), wasm.I64)
	n, hv, kw, ctrl, state := f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5)
	outSel, outPtrs, maxOut := f.Param(6), f.Param(7), f.Param(8)
	i := f.AddLocal(wasm.I32)
	slot := f.AddLocal(wasm.I32)
	f.row = f.AddLocal(wasm.I32)
	h := f.AddLocal(wasm.I64)
	e := f.AddLocal(wasm.I32)
	nOut := f.AddLocal(wasm.I32)
	nkw := f.AddLocal(wasm.I32)
	esize := f.AddLocal(wasm.I32)

	f.ctrlField(i, state, 0)
	f.ctrlField(slot, state, 4)
	f.ctrlField(nkw, ctrl, htOffNKW)
	f.ctrlField(esize, ctrl, htOffESize)

	f.Block(wasm.BlockVoid) // out: buffer full or rows exhausted
	f.Loop(wasm.BlockVoid)  // per row
	f.LocalGet(i)
	f.LocalGet(n)
	f.Op(wasm.OpI32GeS)
	f.BrIf(1)
	f.selRow(0, i)
	f.LocalSet(f.row)
	f.at(hv)
	f.I64Load(0)
	f.LocalSet(h)
	// slot == -1 → fresh row
	f.LocalGet(slot)
	f.I32Const(-1)
	f.I32Eq()
	f.If(wasm.BlockVoid)
	f.homeSlot(slot, h, ctrl)
	f.End()
	// scan cluster
	f.Block(wasm.BlockVoid) // row done
	f.Loop(wasm.BlockVoid)
	f.slotEntry(e, ctrl, slot, esize)
	f.LocalGet(e)
	f.I32Load(0)
	f.I32Eqz()
	f.BrIf(1) // empty slot → row done
	f.LocalGet(e)
	f.I64Load(entryOffHash)
	f.LocalGet(h)
	f.Op(wasm.OpI64Eq)
	f.If(wasm.BlockVoid)
	f.keyWordsEqual(kw, f.row, nkw, e)
	f.If(wasm.BlockVoid)
	// emit match
	f.selAddr(outSel, nOut)
	f.LocalGet(f.row)
	f.I32Store(0)
	f.storePtr(outPtrs, nOut, e)
	f.addTo(nOut, 1)
	// advance slot first, then check capacity
	f.nextSlot(slot, ctrl)
	f.LocalGet(nOut)
	f.LocalGet(maxOut)
	f.I32GeU()
	f.If(wasm.BlockVoid)
	// save state and return "not done"
	f.LocalGet(state)
	f.LocalGet(i)
	f.I32Store(0)
	f.LocalGet(state)
	f.LocalGet(slot)
	f.I32Store(4)
	f.packHi(nOut)
	f.Return()
	f.End()
	f.Br(2) // continue the cluster loop at the already-advanced slot
	f.End()
	f.End()
	// no match (or hash mismatch): advance slot
	f.nextSlot(slot, ctrl)
	f.Br(0)
	f.End()
	f.End()
	// next row
	f.addTo(i, 1)
	f.I32Const(-1)
	f.LocalSet(slot)
	f.Br(0)
	f.End()
	f.End()
	// done: packed(nOut, 1)
	f.packHi(nOut)
	f.I64Const(1)
	f.Op(wasm.OpI64Or)
	f.export()
}

// ht_scan(ctrl, startSlot, maxRows, outPtrs) -> packed(nOut<<32 | nextSlot)
func (k *kb) genHTScan() {
	f := k.fn("ht_scan", i32s(4), wasm.I64)
	ctrl, start, maxRows, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
	slot := f.AddLocal(wasm.I32)
	capL := f.AddLocal(wasm.I32)
	e := f.AddLocal(wasm.I32)
	nOut := f.AddLocal(wasm.I32)
	esize := f.AddLocal(wasm.I32)

	f.LocalGet(start)
	f.LocalSet(slot)
	f.LocalGet(ctrl)
	f.I32Load(htOffMask)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(capL)
	f.ctrlField(esize, ctrl, htOffESize)

	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(slot)
	f.LocalGet(capL)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(nOut)
	f.LocalGet(maxRows)
	f.I32GeU()
	f.BrIf(1)
	f.slotEntry(e, ctrl, slot, esize)
	f.LocalGet(e)
	f.I32Load(0)
	f.If(wasm.BlockVoid)
	f.storePtr(out, nOut, e)
	f.addTo(nOut, 1)
	f.End()
	f.addTo(slot, 1)
	f.Br(0)
	f.End()
	f.End()
	f.packHi(nOut)
	f.LocalGet(slot)
	f.Op(wasm.OpI64ExtendI32U)
	f.Op(wasm.OpI64Or)
	f.export()
}

// entry_word(n, ptrs, wordOffBytes, outVec): compact extraction from entry
// pointers.
func (k *kb) genEntryWord() {
	k.rows("entry_word", i32s(4), denseShape, func(f *kfn) {
		f.vecAt(3, f.i)
		f.entryPtr(1, f.i)
		f.LocalGet(2)
		f.I32Add()
		f.I64Load(0)
		f.I64Store(0)
	})
}

// entry_char(n, ptrs, offBytes, nBytes, outBase): compact copy of a char
// field from entries into a packed buffer (nBytes per row).
func (k *kb) genEntryChar() {
	k.rows("entry_char", i32s(5), denseShape, func(f *kfn) {
		nb, out := f.Param(3), f.Param(4)
		j := f.AddLocal(wasm.I32)
		src := f.AddLocal(wasm.I32)
		dst := f.AddLocal(wasm.I32)
		f.entryField(src, 1, f.i, 2)
		f.packedDst(dst, nb, out)
		f.copyBytes(dst, src, j, nb)
	})
}

// packedDst sets dst to out + i*nb, position i of a packed CHAR buffer.
func (f *kfn) packedDst(dst, nb, out wasm.Local) {
	f.LocalGet(f.i)
	f.LocalGet(nb)
	f.I32Mul()
	f.LocalGet(out)
	f.I32Add()
	f.LocalSet(dst)
}

// store_entry_word(sel, n, ptrs(positional), vec, wordOffBytes)
func (k *kb) genStoreEntryWord() {
	k.rows("store_entry_word", i32s(5), valShape, func(f *kfn) {
		f.entryPtr(2, f.row)
		f.LocalGet(4)
		f.I32Add()
		f.at(3)
		f.I64Load(0)
		f.I64Store(0)
	})
}

// store_entry_char(sel, n, ptrs, colBase, width, batchStart, offBytes,
// nBytes): copies a CHAR value (space-padded to nBytes) from a column into
// located entries.
func (k *kb) genStoreEntryChar() {
	k.rows("store_entry_char", i32s(8), valShape, func(f *kfn) {
		col, width, start, nb := f.Param(3), f.Param(4), f.Param(5), f.Param(7)
		src := f.AddLocal(wasm.I32)
		dst := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		f.charAt(src, col, width, start)
		f.entryField(dst, 2, f.row, 6)
		f.padBytes(dst, src, j, nb, width)
	})
}
