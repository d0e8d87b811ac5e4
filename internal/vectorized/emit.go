package vectorized

import "wasmdb/internal/wasm"

// The shared emitters every kernel is written with: a per-row skeleton, the
// selection-or-value sink, counted loops, and the address and byte helpers.
// The module is pinned function by function (TestKernelModuleGolden), so a
// change to an emitter shows as a change to every kernel that uses it.

// shape is the skeleton of a per-row kernel.
type shape int

const (
	selShape   shape = iota // (sel, n, …) -> m: locals i, m, row; keeps rows in a selection vector
	valShape                // (sel, n, …): locals i, row; writes a value per row
	idxShape                // (sel, n, …): local i; sel[i] is read where it is used
	denseShape              // (n, …): local i, the position itself
)

// kfn is one kernel under construction.
type kfn struct {
	*wasm.FuncBuilder
	k         *kb
	name      string
	i, m, row wasm.Local
}

// fn starts the function name; export publishes it under the same name.
func (k *kb) fn(name string, params []wasm.ValType, results ...wasm.ValType) *kfn {
	return &kfn{FuncBuilder: k.b.NewFunc(name, wasm.FuncType{Params: params, Results: results}), k: k, name: name}
}

func (f *kfn) export() { f.k.b.Export(f.name, wasm.ExternFunc, f.Index) }

// i32s returns n i32 parameter types.
func i32s(n int) []wasm.ValType {
	ts := make([]wasm.ValType, n)
	for i := range ts {
		ts[i] = wasm.I32
	}
	return ts
}

// rows emits a per-row kernel of shape s: its locals, the loop over the batch
// (with row = sel[i] for selShape and valShape), body once per row, and for a
// selection kernel the kept count as its result.
func (k *kb) rows(name string, params []wasm.ValType, s shape, body func(f *kfn)) {
	var res []wasm.ValType
	if s == selShape {
		res = []wasm.ValType{wasm.I32}
	}
	f := k.fn(name, params, res...)
	f.i = f.AddLocal(wasm.I32)
	if s == selShape {
		f.m = f.AddLocal(wasm.I32)
	}
	switch s {
	case selShape, valShape:
		f.row = f.AddLocal(wasm.I32)
		f.eachRow(func() { body(f) })
	case idxShape:
		f.loop(f.i, 1, func() { body(f) })
	case denseShape:
		f.loop(f.i, 0, func() { body(f) })
	}
	if s == selShape {
		f.LocalGet(f.m)
	}
	f.export()
}

// eachRow emits for (i = 0; i < n; i++) { row = sel[i]; body } over the
// selection vector and count in params 0 and 1.
func (f *kfn) eachRow(body func()) {
	f.loop(f.i, 1, func() {
		f.selRow(0, f.i)
		f.LocalSet(f.row)
		body()
	})
}

// keep is the sink of a predicate kernel: a selection kernel appends row to
// the selection vector out where cond pushes non-zero, a value kernel stores
// cond's 0/1 in out[row].
func (f *kfn) keep(out wasm.Local, cond func()) {
	if f.m != 0 {
		cond()
		f.If(wasm.BlockVoid)
		f.storeSel(out, f.m, f.row)
		f.End()
		return
	}
	f.at(out)
	cond()
	f.Op(wasm.OpI64ExtendI32U)
	f.I64Store(0)
}

// loop emits for (i = 0; i < n; i++) { body } over locals, signed.
func (f *kfn) loop(i, n wasm.Local, body func()) {
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(n)
	f.Op(wasm.OpI32GeS)
	f.BrIf(1)
	body()
	f.addTo(i, 1)
	f.Br(0)
	f.End()
	f.End()
}

// forRange emits for (j = 0; j < limit; j += step) { body }, unsigned. A
// byte loop steps 1, a word loop over byte offsets steps 8.
func (f *kfn) forRange(j, limit wasm.Local, step int32, body func()) {
	f.I32Const(0)
	f.LocalSet(j)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(j)
	f.LocalGet(limit)
	f.I32GeU()
	f.BrIf(1)
	body()
	f.addTo(j, step)
	f.Br(0)
	f.End()
	f.End()
}

// addTo emits x += d (a negative d as a subtraction).
func (f *kfn) addTo(x wasm.Local, d int32) {
	f.LocalGet(x)
	if d < 0 {
		f.I32Const(-d)
		f.I32Sub()
	} else {
		f.I32Const(d)
		f.I32Add()
	}
	f.LocalSet(x)
}

// selAddr pushes &sel[i] of an i32 array.
func (f *kfn) selAddr(sel, i wasm.Local) {
	f.LocalGet(sel)
	f.LocalGet(i)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
}

// selRow pushes sel[i] (i32).
func (f *kfn) selRow(sel, i wasm.Local) {
	f.selAddr(sel, i)
	f.I32Load(0)
}

// storeSel writes row into out[m] and increments m.
func (f *kfn) storeSel(out, m, row wasm.Local) {
	f.selAddr(out, m)
	f.LocalGet(row)
	f.I32Store(0)
	f.addTo(m, 1)
}

// vecAddr pushes base + idx*8 where idx (i32) is already on the stack.
func (f *kfn) vecAddr(base wasm.Local) {
	f.I32Const(3)
	f.Op(wasm.OpI32Shl)
	f.LocalGet(base)
	f.I32Add()
}

// vecAt pushes &v[idx] of an 8-byte vector; at pushes &v[row].
func (f *kfn) vecAt(v, idx wasm.Local) {
	f.LocalGet(idx)
	f.vecAddr(v)
}

func (f *kfn) at(v wasm.Local) { f.vecAt(v, f.row) }

// loadWord and storeWord access an 8-byte slot as f64 or as i64.
func (f *kfn) loadWord(flt bool) {
	if flt {
		f.F64Load(0)
	} else {
		f.I64Load(0)
	}
}

func (f *kfn) storeWord(flt bool) {
	if flt {
		f.F64Store(0)
	} else {
		f.I64Store(0)
	}
}

// loadElem loads element elem of the column at col, with the absolute row
// already on the stack, as an i64 slot value: integers sign-extended, BOOLEAN
// zero-extended, floats as f64 when flt and as raw bits otherwise.
func (f *kfn) loadElem(elem int, col wasm.Local, flt bool) {
	switch elem {
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
		f.loadWord(flt && elem == elemF64)
	case elemU8:
		f.LocalGet(col)
		f.I32Add()
		f.I32Load8U(0)
		f.Op(wasm.OpI64ExtendI32U)
	}
}

// rowAddr pushes (start + row)*width + base: a row's value in a CHAR column
// (base = column, width = CHAR width) or a row's slot in a sort array (base
// = array, width = stride).
func (f *kfn) rowAddr(start wasm.Local, row func(), width, base wasm.Local) {
	f.LocalGet(start)
	row()
	f.I32Add()
	f.LocalGet(width)
	f.I32Mul()
	f.LocalGet(base)
	f.I32Add()
}

// thisRow and selI push the row of the current iteration: the row local, or
// sel[i] read in place.
func (f *kfn) thisRow() { f.LocalGet(f.row) }
func (f *kfn) selI()    { f.selRow(0, f.i) }

// charAt sets ptr to this row's value in the CHAR column col of the batch
// starting at start.
func (f *kfn) charAt(ptr, col, width, start wasm.Local) {
	f.rowAddr(start, f.thisRow, width, col)
	f.LocalSet(ptr)
}

// arrSlot pushes field off of sort-array slot startIdx + i.
func (f *kfn) arrSlot(base, stride, off, startIdx wasm.Local) {
	f.rowAddr(startIdx, func() { f.LocalGet(f.i) }, stride, base)
	f.LocalGet(off)
	f.I32Add()
}

// entryPtr pushes the hash-table entry address stored in ptrs[idx].
func (f *kfn) entryPtr(ptrs, idx wasm.Local) {
	f.vecAt(ptrs, idx)
	f.I64Load(0)
	f.Op(wasm.OpI32WrapI64)
}

// entryField sets dst to field off of the entry in ptrs[idx].
func (f *kfn) entryField(dst, ptrs, idx, off wasm.Local) {
	f.entryPtr(ptrs, idx)
	f.LocalGet(off)
	f.I32Add()
	f.LocalSet(dst)
}

// storePtr stores the entry address e into v[idx] as an i64.
func (f *kfn) storePtr(v, idx, e wasm.Local) {
	f.vecAt(v, idx)
	f.LocalGet(e)
	f.Op(wasm.OpI64ExtendI32U)
	f.I64Store(0)
}

// packHi pushes uint64(x) << 32, the high half of a packed result.
func (f *kfn) packHi(x wasm.Local) {
	f.LocalGet(x)
	f.Op(wasm.OpI64ExtendI32U)
	f.I64Const(32)
	f.Op(wasm.OpI64Shl)
}

// byteAt pushes p + j.
func (f *kfn) byteAt(p, j wasm.Local) {
	f.LocalGet(p)
	f.LocalGet(j)
	f.I32Add()
}

// padByte pushes j < w ? src[j] : ' '.
func (f *kfn) padByte(src, j, w wasm.Local) {
	f.LocalGet(j)
	f.LocalGet(w)
	f.Op(wasm.OpI32LtU)
	f.If(wasm.BlockOf(wasm.I32))
	f.byteAt(src, j)
	f.I32Load8U(0)
	f.Else()
	f.I32Const(32)
	f.End()
}

// copyBytes copies n bytes from src to dst over the loop local j.
func (f *kfn) copyBytes(dst, src, j, n wasm.Local) {
	f.forRange(j, n, 1, func() {
		f.byteAt(dst, j)
		f.byteAt(src, j)
		f.I32Load8U(0)
		f.I32Store8(0)
	})
}

// padBytes copies the w-byte CHAR value at src into n bytes at dst,
// space-filling past w.
func (f *kfn) padBytes(dst, src, j, n, w wasm.Local) {
	f.forRange(j, n, 1, func() {
		f.byteAt(dst, j)
		f.padByte(src, j, w)
		f.I32Store8(0)
	})
}

// trimLen sets llen to the length of the w-byte CHAR value at ptr without
// its trailing spaces.
func (f *kfn) trimLen(ptr, w, llen wasm.Local) {
	f.LocalGet(w)
	f.LocalSet(llen)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(llen)
	f.I32Eqz()
	f.BrIf(1)
	f.byteAt(ptr, llen)
	f.I32Const(1)
	f.I32Sub()
	f.I32Load8U(0)
	f.I32Const(32)
	f.I32Ne()
	f.BrIf(1)
	f.addTo(llen, -1)
	f.Br(0)
	f.End()
	f.End()
}

// ctrlField sets dst to the i32 at ctrl + off.
func (f *kfn) ctrlField(dst, ctrl wasm.Local, off uint32) {
	f.LocalGet(ctrl)
	f.I32Load(off)
	f.LocalSet(dst)
}

// slotEntry sets e to the address of hash-table slot idx.
func (f *kfn) slotEntry(e, ctrl, idx, esize wasm.Local) {
	f.LocalGet(ctrl)
	f.I32Load(htOffBase)
	f.LocalGet(idx)
	f.LocalGet(esize)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(e)
}

// nextSlot advances idx to the next slot, wrapping at the table's mask.
func (f *kfn) nextSlot(idx, ctrl wasm.Local) {
	f.LocalGet(idx)
	f.I32Const(1)
	f.I32Add()
	f.LocalGet(ctrl)
	f.I32Load(htOffMask)
	f.I32And()
	f.LocalSet(idx)
}

// homeSlot sets idx to hash h's first slot.
func (f *kfn) homeSlot(idx, h, ctrl wasm.Local) {
	f.LocalGet(h)
	f.Op(wasm.OpI32WrapI64)
	f.LocalGet(ctrl)
	f.I32Load(htOffMask)
	f.I32And()
	f.LocalSet(idx)
}

// kwAddr pushes &kw[row*nkw + w], key word w of row in the key-word area.
func (f *kfn) kwAddr(kw, row, nkw, w wasm.Local) {
	f.LocalGet(kw)
	f.LocalGet(row)
	f.LocalGet(nkw)
	f.I32Mul()
	f.LocalGet(w)
	f.I32Add()
	f.I32Const(3)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
}
