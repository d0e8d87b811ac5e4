package core

import (
	"fmt"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// This file implements the "pre-compiled library" designs the paper argues
// against (§4.3, §5.1, Listing 3), selected by Style flags. They power the
// HyPer-like baseline and the ablation benchmarks:
//
//   - chained, type-agnostic hash tables whose every access is a function
//     call, with key comparison behind call_indirect;
//   - a generic qsort with a comparator function pointer and byte-wise
//     element moves;
//   - branch-free (predicated) selection for global aggregation.

// libRoutines holds the generic library functions, generated once per
// module.
type libRoutines struct {
	htInit   *wasm.FuncBuilder // (nBuckets, entrySize) -> ctrl
	htInsert *wasm.FuncBuilder // (ctrl, hash) -> entry
	htLookup *wasm.FuncBuilder // (ctrl, hash, cmpFn) -> entry | 0
	htNext   *wasm.FuncBuilder // (entry, hash, cmpFn) -> entry | 0
	sort     *wasm.FuncBuilder // (base, n, stride, cmpFn)
	cmp1Type uint32            // type of (entry i32) -> i32
	cmp2Type uint32            // type of (a i32, b i32) -> i32
}

// Chained entry layout: [next i32 @0][hash u64 @8][fields @16].
const (
	libEntryNext = 0
	libEntryHash = 8
	libEntryData = 16
)

// Ctrl block: [buckets i32 @0][mask i32 @4][count i32 @8][entrySize i32 @12].

func (c *compiler) libs() *libRoutines {
	if c.lib != nil {
		return c.lib
	}
	l := &libRoutines{}
	c.lib = l
	b := c.b
	i32 := wasm.I32
	l.cmp1Type = b.AddType(wasm.FuncType{Params: []wasm.ValType{i32}, Results: []wasm.ValType{i32}})
	l.cmp2Type = b.AddType(wasm.FuncType{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}})

	// lib_ht_init(nBuckets, entrySize) -> ctrl
	{
		f := b.NewFunc("lib_ht_init", wasm.FuncType{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}})
		l.htInit = f
		ctrl := f.AddLocal(i32)
		f.I32Const(16)
		f.Call(c.allocFunc().Index)
		f.LocalSet(ctrl)
		f.LocalGet(ctrl)
		f.LocalGet(f.Param(0))
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.Call(c.allocFunc().Index)
		f.I32Store(0)
		f.LocalGet(ctrl)
		f.LocalGet(f.Param(0))
		f.I32Const(1)
		f.I32Sub()
		f.I32Store(4)
		f.LocalGet(ctrl)
		f.I32Const(0)
		f.I32Store(8)
		f.LocalGet(ctrl)
		f.LocalGet(f.Param(1))
		f.I32Store(12)
		f.LocalGet(ctrl)
	}

	// lib_ht_grow(ctrl): double buckets, relink by stored hash.
	grow := b.NewFunc("lib_ht_grow", wasm.FuncType{Params: []wasm.ValType{i32}})
	{
		f := grow
		ctrl := f.Param(0)
		oldBase := f.AddLocal(i32)
		oldCap := f.AddLocal(i32)
		newBase := f.AddLocal(i32)
		newMask := f.AddLocal(i32)
		bi := f.AddLocal(i32)
		e := f.AddLocal(i32)
		nxt := f.AddLocal(i32)
		slot := f.AddLocal(i32)
		f.LocalGet(ctrl)
		f.I32Load(0)
		f.LocalSet(oldBase)
		f.LocalGet(ctrl)
		f.I32Load(4)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(oldCap)
		f.LocalGet(oldCap)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl) // *8 bytes = 2x buckets * 4
		f.Call(c.allocFunc().Index)
		f.LocalSet(newBase)
		f.LocalGet(oldCap)
		f.I32Const(1)
		f.Op(wasm.OpI32Shl)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(newMask)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(bi)
		f.LocalGet(oldCap)
		f.I32GeU()
		f.BrIf(1)
		f.LocalGet(oldBase)
		f.LocalGet(bi)
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.I32Load(0)
		f.LocalSet(e)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(e)
		f.I32Eqz()
		f.BrIf(1)
		f.LocalGet(e)
		f.I32Load(libEntryNext)
		f.LocalSet(nxt)
		// slot = newBase + (hash & newMask)*4
		f.LocalGet(newBase)
		f.LocalGet(e)
		f.I64Load(libEntryHash)
		f.Op(wasm.OpI32WrapI64)
		f.LocalGet(newMask)
		f.I32And()
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.LocalSet(slot)
		f.LocalGet(e)
		f.LocalGet(slot)
		f.I32Load(0)
		f.I32Store(libEntryNext)
		f.LocalGet(slot)
		f.LocalGet(e)
		f.I32Store(0)
		f.LocalGet(nxt)
		f.LocalSet(e)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(bi)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(bi)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(ctrl)
		f.LocalGet(newBase)
		f.I32Store(0)
		f.LocalGet(ctrl)
		f.LocalGet(newMask)
		f.I32Store(4)
	}

	// lib_ht_insert(ctrl, hash) -> entry
	{
		f := b.NewFunc("lib_ht_insert", wasm.FuncType{Params: []wasm.ValType{i32, wasm.I64}, Results: []wasm.ValType{i32}})
		l.htInsert = f
		ctrl, hash := f.Param(0), f.Param(1)
		e := f.AddLocal(i32)
		slot := f.AddLocal(i32)
		// grow when count >= buckets
		f.LocalGet(ctrl)
		f.I32Load(8)
		f.LocalGet(ctrl)
		f.I32Load(4)
		f.I32Const(1)
		f.I32Add()
		f.I32GeU()
		f.If(wasm.BlockVoid)
		f.LocalGet(ctrl)
		f.Call(grow.Index)
		f.End()
		f.LocalGet(ctrl)
		f.I32Load(12)
		f.Call(c.allocFunc().Index)
		f.LocalSet(e)
		f.LocalGet(ctrl)
		f.I32Load(0)
		f.LocalGet(hash)
		f.Op(wasm.OpI32WrapI64)
		f.LocalGet(ctrl)
		f.I32Load(4)
		f.I32And()
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.LocalSet(slot)
		f.LocalGet(e)
		f.LocalGet(slot)
		f.I32Load(0)
		f.I32Store(libEntryNext)
		f.LocalGet(slot)
		f.LocalGet(e)
		f.I32Store(0)
		f.LocalGet(e)
		f.LocalGet(hash)
		f.I64Store(libEntryHash)
		f.LocalGet(ctrl)
		f.LocalGet(ctrl)
		f.I32Load(8)
		f.I32Const(1)
		f.I32Add()
		f.I32Store(8)
		f.LocalGet(e)
	}

	// chainScan emits the shared walk: from entry local e, find the first
	// entry with matching hash whose comparator accepts it.
	chainScan := func(f *wasm.FuncBuilder, e wasm.Local, hash, cmpFn wasm.Local) {
		f.Block(wasm.BlockOf(wasm.I32))
		f.Loop(wasm.BlockOf(wasm.I32))
		f.I32Const(0)
		f.LocalGet(e)
		f.I32Eqz()
		f.BrIf(1)
		f.Drop()
		f.LocalGet(e)
		f.LocalGet(e)
		f.I64Load(libEntryHash)
		f.LocalGet(hash)
		f.Op(wasm.OpI64Eq)
		f.If(wasm.BlockOf(wasm.I32))
		// The comparison callback — one indirect call per candidate.
		f.LocalGet(e)
		f.LocalGet(cmpFn)
		f.Emit(wasm.OpCallIndirect, uint64(l.cmp1Type), 0)
		f.Else()
		f.I32Const(0)
		f.End()
		f.BrIf(1)
		f.Drop()
		f.LocalGet(e)
		f.I32Load(libEntryNext)
		f.LocalSet(e)
		f.Br(0)
		f.End()
		f.End()
	}

	// lib_ht_lookup(ctrl, hash, cmpFn) -> entry | 0
	{
		f := b.NewFunc("lib_ht_lookup", wasm.FuncType{
			Params: []wasm.ValType{i32, wasm.I64, i32}, Results: []wasm.ValType{i32}})
		l.htLookup = f
		ctrl, hash, cmpFn := f.Param(0), f.Param(1), f.Param(2)
		e := f.AddLocal(i32)
		f.LocalGet(ctrl)
		f.I32Load(0)
		f.LocalGet(hash)
		f.Op(wasm.OpI32WrapI64)
		f.LocalGet(ctrl)
		f.I32Load(4)
		f.I32And()
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.I32Load(0)
		f.LocalSet(e)
		chainScan(f, e, hash, cmpFn)
	}

	// lib_ht_next(entry, hash, cmpFn) -> next matching entry | 0
	{
		f := b.NewFunc("lib_ht_next", wasm.FuncType{
			Params: []wasm.ValType{i32, wasm.I64, i32}, Results: []wasm.ValType{i32}})
		l.htNext = f
		prev, hash, cmpFn := f.Param(0), f.Param(1), f.Param(2)
		e := f.AddLocal(i32)
		f.LocalGet(prev)
		f.I32Load(libEntryNext)
		f.LocalSet(e)
		chainScan(f, e, hash, cmpFn)
	}

	// lib_sort(base, n, stride, cmpFn): generic quicksort + insertion sort,
	// comparator via call_indirect, element moves via byte loops.
	copyBytes := b.NewFunc("lib_copy", wasm.FuncType{Params: []wasm.ValType{i32, i32, i32}})
	{
		f := copyBytes
		dst, src, n := f.Param(0), f.Param(1), f.Param(2)
		i := f.AddLocal(i32)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(i)
		f.LocalGet(n)
		f.I32GeU()
		f.BrIf(1)
		f.LocalGet(dst)
		f.LocalGet(i)
		f.I32Add()
		f.LocalGet(src)
		f.LocalGet(i)
		f.I32Add()
		f.I32Load8U(0)
		f.I32Store8(0)
		f.LocalGet(i)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
	}

	isort := b.NewFunc("lib_isort", wasm.FuncType{
		Params: []wasm.ValType{i32, i32, i32, i32, i32, i32}}) // base, lo, hi, stride, cmpFn, scratch
	{
		f := isort
		base, lo, hi, stride, cmpFn, scr := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5)
		kk := f.AddLocal(i32)
		m := f.AddLocal(i32)
		prev := f.AddLocal(i32)
		eAddr := func(idx wasm.Local) {
			f.LocalGet(idx)
			f.LocalGet(stride)
			f.I32Mul()
			f.LocalGet(base)
			f.I32Add()
		}
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
		f.LocalGet(scr)
		eAddr(kk)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(kk)
		f.LocalSet(m)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(m)
		f.LocalGet(lo)
		f.Op(wasm.OpI32LeS)
		f.BrIf(1)
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.LocalGet(stride)
		f.I32Mul()
		f.LocalGet(base)
		f.I32Add()
		f.LocalSet(prev)
		// if !(scratch < prev): break
		f.LocalGet(scr)
		f.LocalGet(prev)
		f.LocalGet(cmpFn)
		f.Emit(wasm.OpCallIndirect, uint64(l.cmp2Type), 0)
		f.I32Eqz()
		f.BrIf(1)
		eAddr(m)
		f.LocalGet(prev)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(m)
		f.Br(0)
		f.End()
		f.End()
		eAddr(m)
		f.LocalGet(scr)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(kk)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(kk)
		f.Br(0)
		f.End()
		f.End()
	}

	sortRec := b.NewFunc("lib_qsort_rec", wasm.FuncType{
		Params: []wasm.ValType{i32, i32, i32, i32, i32, i32, i32}}) // base, lo, hi, stride, cmpFn, scrA, scrB
	{
		f := sortRec
		base, lo0, hi0, stride, cmpFn, scrA, scrB := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5), f.Param(6)
		lo := f.AddLocal(i32)
		hi := f.AddLocal(i32)
		i := f.AddLocal(i32)
		j := f.AddLocal(i32)
		pi := f.AddLocal(i32)
		pj := f.AddLocal(i32)
		eAddr := func(idx wasm.Local) {
			f.LocalGet(idx)
			f.LocalGet(stride)
			f.I32Mul()
			f.LocalGet(base)
			f.I32Add()
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
		// pivot → scrA
		f.LocalGet(scrA)
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
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(lo)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(i)
		f.LocalGet(hi)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(i)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(i)
		eAddr(i)
		f.LocalSet(pi)
		f.LocalGet(pi)
		f.LocalGet(scrA)
		f.LocalGet(cmpFn)
		f.Emit(wasm.OpCallIndirect, uint64(l.cmp2Type), 0)
		f.I32Eqz()
		f.BrIf(1)
		f.Br(0)
		f.End()
		f.End()
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(j)
		eAddr(j)
		f.LocalSet(pj)
		f.LocalGet(scrA)
		f.LocalGet(pj)
		f.LocalGet(cmpFn)
		f.Emit(wasm.OpCallIndirect, uint64(l.cmp2Type), 0)
		f.I32Eqz()
		f.BrIf(1)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(i)
		f.LocalGet(j)
		f.Op(wasm.OpI32GeS)
		f.BrIf(1)
		// swap via scrB (generic byte moves)
		f.LocalGet(scrB)
		f.LocalGet(pi)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(pi)
		f.LocalGet(pj)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.LocalGet(pj)
		f.LocalGet(scrB)
		f.LocalGet(stride)
		f.Call(copyBytes.Index)
		f.Br(0)
		f.End()
		f.End()
		// recurse smaller partition
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalGet(lo)
		f.I32Sub()
		f.LocalGet(hi)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.I32Sub()
		f.Op(wasm.OpI32LeS)
		f.If(wasm.BlockVoid)
		f.LocalGet(base)
		f.LocalGet(lo)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalGet(stride)
		f.LocalGet(cmpFn)
		f.LocalGet(scrA)
		f.LocalGet(scrB)
		f.CallBuilder(sortRec)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(lo)
		f.Else()
		f.LocalGet(base)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalGet(hi)
		f.LocalGet(stride)
		f.LocalGet(cmpFn)
		f.LocalGet(scrA)
		f.LocalGet(scrB)
		f.CallBuilder(sortRec)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(hi)
		f.End()
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(base)
		f.LocalGet(lo)
		f.LocalGet(hi)
		f.LocalGet(stride)
		f.LocalGet(cmpFn)
		f.LocalGet(scrB)
		f.Call(isort.Index)
	}

	{
		f := b.NewFunc("lib_sort", wasm.FuncType{Params: []wasm.ValType{i32, i32, i32, i32}})
		l.sort = f
		base, n, stride, cmpFn := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
		scrA := f.AddLocal(i32)
		scrB := f.AddLocal(i32)
		f.LocalGet(stride)
		f.Call(c.allocFunc().Index)
		f.LocalSet(scrA)
		f.LocalGet(stride)
		f.Call(c.allocFunc().Index)
		f.LocalSet(scrB)
		f.LocalGet(base)
		f.I32Const(0)
		f.LocalGet(n)
		f.LocalGet(stride)
		f.LocalGet(cmpFn)
		f.LocalGet(scrA)
		f.LocalGet(scrB)
		f.Call(sortRec.Index)
	}
	return l
}

// registerTableFunc adds a function to the call_indirect table, returning
// its table index.
func (c *compiler) registerTableFunc(fn *wasm.FuncBuilder) uint32 {
	c.tableFuncs = append(c.tableFuncs, fn.Index)
	return uint32(len(c.tableFuncs) - 1)
}

// ---------------------------------------------------------------------------
// Library-style grouping.

// libHT describes one chained library hash table used by a query.
type libHT struct {
	layout  tupleLayout // fields start at libEntryData
	keys    []sema.Expr
	gCtrl   uint32 // global holding the ctrl pointer
	keyGlob []uint32
	cmpIdx  uint32 // table index of the key comparator
	// canonFloatKeys is set for join tables, which hash Float64 keys
	// through -0.0→+0.0 canonicalization so the F64Eq comparator and the
	// hash agree; group tables keep raw-bit hashing.
	canonFloatKeys bool
}

// newLibHT declares globals, the comparator, and the init step.
func (c *compiler) newLibHT(name string, fields []sema.Expr, keys, lookupKeys []sema.Expr, canonFloatKeys bool) *libHT {
	l := c.libs()
	ht := &libHT{
		layout:         buildLayout(dedupExprs(fields), libEntryData),
		keys:           keys,
		gCtrl:          c.b.AddGlobal(wasm.I32, true, 0),
		canonFloatKeys: canonFloatKeys,
	}
	// One "current key" global per key; CHAR keys hold a pointer.
	for _, k := range keys {
		ht.keyGlob = append(ht.keyGlob, c.b.AddGlobal(wasmType(k.Type()), true, 0))
	}
	// Comparator: reads the key globals, compares against entry fields.
	cmp := c.b.NewFunc("cmp_"+name, wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	g := &gen{c: c, f: cmp}
	entry := cmp.Param(0)
	for i, k := range keys {
		fld, ok := ht.layout.find(k)
		if !ok {
			panic("core: key missing from library entry layout")
		}
		switch k.Type().Kind {
		case types.Char:
			// The key global points at the looked-up value, which has the
			// width of its own column — a join's probe key may be narrower
			// or wider than the build key stored in the entry.
			sc := c.strcmpFunc(lookupKeys[i].Type().Length, fld.t.Length)
			cmp.GlobalGet(ht.keyGlob[i])
			g.loadField(entry, fld)
			cmp.Call(sc.Index)
			cmp.I32Eqz()
		case types.Float64:
			cmp.GlobalGet(ht.keyGlob[i])
			g.loadField(entry, fld)
			cmp.Op(wasm.OpF64Eq)
		case types.Int64, types.Decimal:
			cmp.GlobalGet(ht.keyGlob[i])
			g.loadField(entry, fld)
			cmp.Op(wasm.OpI64Eq)
		default:
			cmp.GlobalGet(ht.keyGlob[i])
			g.loadField(entry, fld)
			cmp.I32Eq()
		}
		if i > 0 {
			cmp.I32And()
		}
	}
	if len(keys) == 0 {
		cmp.I32Const(1)
	}
	ht.cmpIdx = c.registerTableFunc(cmp)

	c.initSteps = append(c.initSteps, func(gi *gen) {
		gi.f.I32Const(1024)
		gi.f.I32Const(int32(ht.layout.stride))
		gi.f.Call(l.htInit.Index)
		gi.f.GlobalSet(ht.gCtrl)
	})
	return ht
}

// emitSetKeys evaluates the table's own key expressions into the key
// globals and computes the hash.
func (g *gen) emitSetKeys(e *env, ht *libHT) wasm.Local {
	return g.emitSetKeysFor(e, ht, ht.keys)
}

// emitSetKeysFor evaluates the given key expressions (e.g. the probe side's
// keys) into the key globals and computes the hash (same mixing as the
// specialized path, so both sides agree).
func (g *gen) emitSetKeysFor(e *env, ht *libHT, keys []sema.Expr) wasm.Local {
	var srcs []keySrc
	for i, k := range keys {
		g.expr(e, k)
		g.f.GlobalSet(ht.keyGlob[i])
		gi := ht.keyGlob[i]
		t := k.Type()
		srcs = append(srcs, keySrc{t: t, pushVal: func() { g.f.GlobalGet(gi) }})
	}
	return g.emitHashCanon(srcs, ht.canonFloatKeys)
}

// produceGroupLib compiles grouping through the generic library hash table.
func (c *compiler) produceGroupLib(gr *plan.Group, consume consumer) error {
	fields := append([]sema.Expr{}, gr.Keys...)
	var aggSlots []*sema.AggRef
	for i, a := range gr.Aggs {
		ref := &sema.AggRef{Idx: i, T: a.T}
		aggSlots = append(aggSlots, ref)
		fields = append(fields, ref)
	}
	ht := c.newLibHT(fmt.Sprintf("group%d", len(c.pipes)), fields, gr.Keys, gr.Keys, false)
	l := c.libs()

	err := c.produce(gr.Input, func(g *gen, e *env) {
		f := g.f
		h := g.emitSetKeys(e, ht)
		argLocals := make([]wasm.Local, len(gr.Aggs))
		for i, a := range gr.Aggs {
			if a.Arg == nil {
				continue
			}
			lv := f.AddLocal(wasmType(a.Arg.Type()))
			g.expr(e, a.Arg)
			f.LocalSet(lv)
			argLocals[i] = lv
		}
		entry := f.AddLocal(wasm.I32)
		// entry = lookup(ctrl, h, cmp) — a library call per tuple.
		f.GlobalGet(ht.gCtrl)
		f.LocalGet(h)
		f.I32Const(int32(ht.cmpIdx))
		f.Call(l.htLookup.Index)
		f.LocalTee(entry)
		f.I32Eqz()
		f.If(wasm.BlockVoid)
		// entry = insert(ctrl, h); store keys; init aggregates.
		f.GlobalGet(ht.gCtrl)
		f.LocalGet(h)
		f.Call(l.htInsert.Index)
		f.LocalSet(entry)
		for i, k := range gr.Keys {
			fld, _ := ht.layout.find(k)
			gi := ht.keyGlob[i]
			g.storeFieldFromStack(entry, fld, func() { f.GlobalGet(gi) })
		}
		for i, a := range gr.Aggs {
			fld, _ := ht.layout.find(aggSlots[i])
			g.emitAggInit(entry, fld, a, argLocals[i])
		}
		f.Else()
		for i, a := range gr.Aggs {
			fld, _ := ht.layout.find(aggSlots[i])
			arg := argLocals[i]
			g.emitAggFold(a.Func, g.fieldAgg(entry, fld), foldVal{push: func() { f.LocalGet(arg) }})
		}
		f.End()
	})
	if err != nil {
		return err
	}
	c.serialOnly(fallbackUnmergeable)

	// Scan pipeline: walk buckets [begin, end), following chains. The host
	// reads the bucket count from the ctrl block (PipeScanBuckets).
	g := c.newPipeline(PipeScanBuckets, -1, ht.gCtrl)
	f := g.f
	bi := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)
	f.LocalGet(f.Param(0))
	f.LocalSet(bi)

	e := &env{}
	for i, k := range gr.Keys {
		kf, _ := ht.layout.find(k)
		e.add(&sema.KeyRef{Idx: i, T: k.Type()}, func() { g.loadField(entry, kf) })
	}
	for i := range gr.Aggs {
		af, _ := ht.layout.find(aggSlots[i])
		e.add(aggSlots[i], func() { g.loadField(entry, af) })
	}

	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(bi)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	// entry = buckets[bi]
	f.GlobalGet(ht.gCtrl)
	f.I32Load(0)
	f.LocalGet(bi)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
	f.I32Load(0)
	f.LocalSet(entry)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(entry)
	f.I32Eqz()
	f.BrIf(1)
	consume(g, e)
	f.LocalGet(entry)
	f.I32Load(libEntryNext)
	f.LocalSet(entry)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(bi)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(bi)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	return g.err
}
