package core

import (
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
	sort     *wasm.FuncBuilder // (lo, hi, base, stride, cmpFn, scratchA, scratchB)
	copy     *wasm.FuncBuilder // (dst, src, n)
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
		f.LocalAddI32(bi, 1)
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

	// lib_copy(dst, src, n): the generic element move, a byte loop.
	l.copy = b.NewFunc("lib_copy", wasm.FuncType{Params: []wasm.ValType{i32, i32, i32}})
	{
		f := l.copy
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
		f.LocalAddI32(i, 1)
		f.Br(0)
		f.End()
		f.End()
	}

	// lib_sort(lo, hi, base, stride, cmpFn, scrA, scrB): the one quicksort
	// (genQuicksort), type-agnostic — the stride is an argument, every
	// comparison an indirect call, every element move a byte loop.
	const base, stride, cmpFn, scr = 2, 3, 4, 5
	em := l.sortHooks(func(f *wasm.FuncBuilder) { f.LocalGet(stride) },
		func(f *wasm.FuncBuilder) { f.LocalGet(cmpFn) })
	em.isort, em.qsort = "lib_isort", "lib_sort"
	em.pass = []wasm.ValType{i32, i32, i32, i32, i32}
	em.addr = func(f *wasm.FuncBuilder, pushIdx func()) {
		f.LocalGet(base)
		pushIdx()
		f.LocalGet(stride)
		f.I32Mul()
		f.I32Add()
	}
	em.scratch = func(f *wasm.FuncBuilder, n int) { f.LocalGet(wasm.Local(scr + n)) }
	em.swap = func(f *wasm.FuncBuilder, a, b, _ wasm.Local) {
		carrier := func() { f.LocalGet(scr + 1) }
		em.move(f, carrier, func() { f.LocalGet(a) })
		em.move(f, func() { f.LocalGet(a) }, func() { f.LocalGet(b) })
		em.move(f, func() { f.LocalGet(b) }, carrier)
	}
	l.sort = c.genQuicksort(em)
	return l
}

// sortHooks returns the library sort's comparison and element move: the
// comparator at the table index pushCmp pushes, called through the table, and
// a lib_copy of the pushStride bytes. lib_sort passes both as parameters; a
// query's sorted-run merge bakes them in as constants.
func (l *libRoutines) sortHooks(pushStride, pushCmp func(f *wasm.FuncBuilder)) sortEmit {
	return sortEmit{
		less: func(g *gen, a, b wasm.Local) {
			g.f.LocalGet(a)
			g.f.LocalGet(b)
			pushCmp(g.f)
			g.f.Emit(wasm.OpCallIndirect, uint64(l.cmp2Type), 0)
		},
		move: func(f *wasm.FuncBuilder, pushDst, pushSrc func()) {
			pushDst()
			pushSrc()
			pushStride(f)
			f.Call(l.copy.Index)
		},
	}
}

// registerTableFunc adds a function to the call_indirect table, returning
// its table index.
func (c *compiler) registerTableFunc(fn *wasm.FuncBuilder) uint32 {
	c.tableFuncs = append(c.tableFuncs, fn.Index)
	return uint32(len(c.tableFuncs) - 1)
}

// libHT describes one chained library hash table used by a query: the
// groupTable or buildSide of the library style.
type libHT struct {
	layout  tupleLayout // fields start at libEntryData
	gCtrl   uint32      // global holding the ctrl pointer
	keyGlob []uint32
	cmpIdx  uint32 // table index of the key comparator
	// canonFloatKeys is set for join tables, which hash Float64 keys
	// through -0.0→+0.0 canonicalization so the F64Eq comparator and the
	// hash agree; group tables keep raw-bit hashing.
	canonFloatKeys bool
	// hashW is the hashed width of each CHAR key, the same for stored and
	// looked-up keys (hashWidths).
	hashW []int
}

// newLibHT declares globals, the comparator, and the init step.
func (c *compiler) newLibHT(name string, fields []sema.Expr, keys, lookupKeys []sema.Expr, canonFloatKeys bool) *libHT {
	l := c.libs()
	ht := &libHT{
		layout:         buildLayout(dedupExprs(fields), libEntryData),
		gCtrl:          c.b.AddGlobal(wasm.I32, true, 0),
		canonFloatKeys: canonFloatKeys,
		hashW:          hashWidths(keys, lookupKeys),
	}
	// One "current key" global per key; CHAR keys hold a pointer.
	for _, k := range keys {
		ht.keyGlob = append(ht.keyGlob, c.b.AddGlobal(wasmType(k.Type()), true, 0))
	}
	// Comparator: the inlined key comparison of the ad-hoc tables, reading the
	// looked-up keys from the key globals. A CHAR global points at a value of
	// its own column's width — a join's probe key may be narrower or wider
	// than the build key stored in the entry.
	cmp := c.b.NewFunc("cmp_"+name, wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	g := &gen{c: c, f: cmp}
	looked := make([]keySrc, len(keys))
	for i, k := range lookupKeys {
		gi := ht.keyGlob[i]
		looked[i] = keySrc{t: k.Type(), pushVal: func() { cmp.GlobalGet(gi) }}
	}
	g.emitKeysEqual(&ht.layout, keys, looked, cmp.Param(0))
	c.noteErr(g)
	ht.cmpIdx = c.registerTableFunc(cmp)

	c.initSteps = append(c.initSteps, func(gi *gen) {
		gi.f.I32Const(1024)
		gi.f.I32Const(int32(ht.layout.stride))
		gi.f.Call(l.htInit.Index)
		gi.f.GlobalSet(ht.gCtrl)
	})
	return ht
}

func (ht *libHT) fields() *tupleLayout { return &ht.layout }

// keySrcs evaluates the key expressions (the table's own, or a probe side's)
// into the key globals, where the comparator callback finds them.
func (ht *libHT) keySrcs(g *gen, e *env, keys []sema.Expr) []keySrc {
	srcs := make([]keySrc, len(keys))
	for i, k := range keys {
		gi := ht.keyGlob[i]
		g.expr(e, k)
		g.f.GlobalSet(gi)
		srcs[i] = keySrc{t: k.Type(), pushVal: func() { g.f.GlobalGet(gi) }}
	}
	return srcs
}

// emitLookup pushes lib_ht_lookup(ctrl, h, comparator): the first entry of
// the hash's chain the comparator callback accepts, or 0.
func (ht *libHT) emitLookup(g *gen, h wasm.Local) {
	g.f.GlobalGet(ht.gCtrl)
	g.f.LocalGet(h)
	g.f.I32Const(int32(ht.cmpIdx))
	g.f.Call(g.c.libs().htLookup.Index)
}

// emitInsert pushes lib_ht_insert(ctrl, h): a new entry at the head of the
// hash's chain. Insert needs only the hash (the key globals feed the
// comparator, not the insert).
func (ht *libHT) emitInsert(g *gen, h wasm.Local) {
	g.f.GlobalGet(ht.gCtrl)
	g.f.LocalGet(h)
	g.f.Call(g.c.libs().htInsert.Index)
}

// upsert is a lookup call per tuple, and an insert call per new group.
func (ht *libHT) upsert(g *gen, keys []keySrc, claim, fold func(entry wasm.Local)) {
	f := g.f
	h := g.emitHash(keys, ht.hashW, ht.canonFloatKeys)
	entry := f.AddLocal(wasm.I32)
	ht.emitLookup(g, h)
	f.LocalTee(entry)
	f.I32Eqz()
	f.If(wasm.BlockVoid)
	ht.emitInsert(g, h)
	f.LocalSet(entry)
	claim(entry)
	f.Else()
	fold(entry)
	f.End()
}

// append is an insert call per build tuple.
func (ht *libHT) append(g *gen, keys []keySrc, e *env) {
	entry := g.f.AddLocal(wasm.I32)
	ht.emitInsert(g, g.emitHash(keys, ht.hashW, ht.canonFloatKeys))
	g.f.LocalSet(entry)
	g.storeTuple(entry, ht.layout, e)
}

// probe: entry = lookup(...); while entry: match; entry = next(...).
func (ht *libHT) probe(g *gen, e *env, probeKeys []sema.Expr, match consumer) {
	f := g.f
	h := g.emitHash(ht.keySrcs(g, e, probeKeys), ht.hashW, ht.canonFloatKeys)
	entry := f.AddLocal(wasm.I32)
	ht.emitLookup(g, h)
	f.LocalSet(entry)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(entry)
	f.I32Eqz()
	f.BrIf(1)
	match(g, tupleEnv(g, e, entry, ht.layout))
	f.LocalGet(entry)
	f.LocalGet(h)
	f.I32Const(int32(ht.cmpIdx))
	f.Call(g.c.libs().htNext.Index)
	f.LocalSet(entry)
	f.Br(0)
	f.End()
	f.End()
}

// scan walks buckets [begin, end), following chains. The host reads the
// bucket count from the ctrl block (PipeScanBuckets).
func (ht *libHT) scan(c *compiler, body func(g *gen, entry wasm.Local)) error {
	return c.rangePipeline(PipeScanBuckets, -1, ht.gCtrl, func(g *gen, bi wasm.Local) {
		f := g.f
		entry := f.AddLocal(wasm.I32)
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
		body(g, entry)
		f.LocalGet(entry)
		f.I32Load(libEntryNext)
		f.LocalSet(entry)
		f.Br(0)
		f.End()
		f.End()
	})
}

// producePredicatedGlobalAgg fuses scan, selection, and keyless aggregation
// into one branch-free pipeline: the selection mask participates in every
// aggregate update arithmetically (count += mask; sum += mask ? v : 0 via
// select) — no conditional branch depends on the data, so execution time is
// flat across selectivities (the paper's reading of HyPer in Fig. 6).
func (c *compiler) producePredicatedGlobalAgg(gr *plan.Group, scan *plan.Scan, consume consumer) error {
	states, gCount, fold := c.newGlobalAggStates(gr)

	// Fused scan pipeline.
	err := c.rangePipeline(PipeScanTable, scan.TableIdx, 0, func(g *gen, row wasm.Local) {
		f := g.f
		mask := f.AddLocal(wasm.I32)
		e := &env{}
		c.bindTableColumns(g, e, scan.TableIdx, row)
		if len(scan.Filter) == 0 {
			f.I32Const(1)
		} else if g.conjunction(e, scan.Filter) != nil {
			return
		}
		f.LocalSet(mask)
		// A masked row is a partial state of zero or one rows: count += mask,
		// sum += mask ? v : 0, min/max fold mask ? v : cur.
		pushMask := func() {
			f.LocalGet(mask)
			f.Op(wasm.OpI64ExtendI32U)
		}
		g.emitAggFold(sema.AggCountStar, g.globalAgg(gCount, types.TInt64), foldVal{push: pushMask, partial: true})
		for i, a := range gr.Aggs {
			st := states[i]
			v := foldVal{push: pushMask, partial: true}
			switch a.Func {
			case sema.AggSum:
				v.push = func() {
					g.expr(e, a.Arg)
					if st.t == wasm.F64 {
						f.F64Const(0)
					} else {
						f.I64Const(0)
					}
					f.LocalGet(mask)
					f.Select()
				}
			case sema.AggMin, sema.AggMax:
				cand := f.AddLocal(st.t)
				g.expr(e, a.Arg)
				f.GlobalGet(st.glob)
				f.LocalGet(mask)
				f.Select()
				f.LocalSet(cand)
				v.push = func() { f.LocalGet(cand) }
			}
			g.emitAggFold(a.Func, g.globalAgg(st.glob, a.T), v)
		}
	})
	if err != nil {
		return err
	}
	c.declareFold(gr, fold)
	return c.emitGlobalAggOutput(gr, states, gCount, consume)
}
