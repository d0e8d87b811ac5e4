package core

import (
	"fmt"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// produceSort compiles ORDER BY via the paper's §5 running example: the
// feeding pipeline materializes tuples into a growable array, a quicksort
// sorts it in place, and a final pipeline scans the sorted array. The style
// picks the quicksort and nothing else: generated for this query, with the
// multi-key comparison *inlined* at every use site and the stride baked in, or
// the generic library routine that reaches the same comparison through a
// function pointer and moves elements with a byte copy.
func (c *compiler) produceSort(s *plan.Sort, consume consumer) error {
	// Tuple fields: sort keys plus everything downstream needs. Downstream
	// expressions live in the same domain as the sort input, so collecting
	// the leaf references of select/order expressions suffices.
	layout := buildLayout(dedupExprs(c.sortFieldExprs(s)), 0)
	stride := int32(layout.stride)

	gBase := c.b.AddGlobal(wasm.I32, true, 0)
	gCount := c.b.AddGlobal(wasm.I32, true, 0)
	gCap := c.b.AddGlobal(wasm.I32, true, 0)
	gScratchA := c.b.AddGlobal(wasm.I32, true, 0) // pivot tuple
	gScratchB := c.b.AddGlobal(wasm.I32, true, 0) // insertion-sort carrier

	initialCap := uint32(1024)
	c.initSteps = append(c.initSteps, func(g *gen) {
		f := g.f
		f.I32Const(int32(initialCap * layout.stride))
		f.Call(c.allocFunc().Index)
		f.GlobalSet(gBase)
		f.I32Const(int32(initialCap))
		f.GlobalSet(gCap)
		f.I32Const(0)
		f.GlobalSet(gCount)
		f.I32Const(stride)
		f.Call(c.allocFunc().Index)
		f.GlobalSet(gScratchA)
		f.I32Const(stride)
		f.Call(c.allocFunc().Index)
		f.GlobalSet(gScratchB)
	})

	sortID := len(c.pipes)
	growFn := c.genArrayGrow(sortID, gBase, gCount, gCap, layout.stride)

	// Feeding pipeline: append tuples to the array.
	err := c.produce(s.Input, func(g *gen, e *env) {
		f := g.f
		// if count == cap: grow
		f.GlobalGet(gCount)
		f.GlobalGet(gCap)
		f.I32GeU()
		f.If(wasm.BlockVoid)
		f.Call(growFn.Index)
		f.End()
		ptr := f.AddLocal(wasm.I32)
		f.GlobalGet(gBase)
		f.GlobalGet(gCount)
		f.I32Const(stride)
		f.I32Mul()
		f.I32Add()
		f.LocalSet(ptr)
		g.storeTuple(ptr, layout, e)
		f.GlobalGet(gCount)
		f.I32Const(1)
		f.I32Add()
		f.GlobalSet(gCount)
	})
	if err != nil {
		return err
	}

	// The sort routine, what its call hands over besides the bounds, and the
	// comparison and move the sorted-run merge is built from.
	var qs *wasm.FuncBuilder
	var em sortEmit
	pushPass := func(*wasm.FuncBuilder) {}
	if c.style.LibrarySort {
		// The comparison becomes a function of two tuple pointers, which the
		// generic sort invokes through the table for every comparison.
		cmp := c.b.NewFunc(fmt.Sprintf("sortcmp_%d", sortID),
			wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
		g := &gen{c: c, f: cmp}
		emitLess(g, s.Keys, layout, cmp.Param(0), cmp.Param(1))
		c.noteErr(g)
		cmpIdx := c.registerTableFunc(cmp)
		qs = c.libs().sort
		em = c.libs().sortHooks(func(f *wasm.FuncBuilder) { f.I32Const(stride) },
			func(f *wasm.FuncBuilder) { f.I32Const(int32(cmpIdx)) })
		pushPass = func(f *wasm.FuncBuilder) {
			f.GlobalGet(gBase)
			f.I32Const(stride)
			f.I32Const(int32(cmpIdx))
			f.GlobalGet(gScratchA)
			f.GlobalGet(gScratchB)
		}
	} else {
		em = inlinedSort(sortID, s.Keys, layout, gBase, [2]uint32{gScratchA, gScratchB})
		qs = c.genQuicksort(em)
	}

	// Exports of the sorted-run barrier (dead code on serial runs).
	runs := c.genSortMerge(em, layout.stride, gBase, gCount)

	// Run-once pipeline sorting [0, count): under a pool every worker calls
	// it on its own array, and the barrier merges the sorted runs.
	g := c.newPipeline(PipeRunOnce, -1, 0)
	g.f.I32Const(0)
	g.f.GlobalGet(gCount)
	pushPass(g.f)
	g.f.Call(qs.Index)
	g.f.I32Const(0)
	c.addBarrier(Barrier{Sort: runs})

	// Scan pipeline over the sorted array.
	return c.rangePipeline(PipeScanArray, -1, gCount, func(g *gen, i wasm.Local) {
		ptr := g.f.AddLocal(wasm.I32)
		g.f.GlobalGet(gBase)
		g.f.LocalGet(i)
		g.f.I32Const(stride)
		g.f.I32Mul()
		g.f.I32Add()
		g.f.LocalSet(ptr)
		consume(g, tupleEnv(g, &env{}, ptr, layout))
	})
}

// sortFieldExprs collects the expressions a sort tuple must carry: the sort
// keys and the leaf references (or whole expressions) the projection needs.
func (c *compiler) sortFieldExprs(s *plan.Sort) []sema.Expr {
	var out []sema.Expr
	for _, k := range s.Keys {
		out = append(out, k.Expr)
	}
	// Select expressions are evaluated after the sort; carry their leaf
	// references so they can be recomputed from the tuple.
	for _, oc := range c.q.Select {
		out = append(out, leafRefs(oc.Expr)...)
	}
	return out
}

// leafRefs extracts the ColRef/KeyRef/AggRef leaves of an expression.
func leafRefs(e sema.Expr) []sema.Expr {
	switch x := e.(type) {
	case *sema.ColRef, *sema.KeyRef, *sema.AggRef:
		return []sema.Expr{e}
	case *sema.Binary:
		return append(leafRefs(x.L), leafRefs(x.R)...)
	case *sema.Not:
		return leafRefs(x.E)
	case *sema.Cast:
		return leafRefs(x.E)
	case *sema.Like:
		return leafRefs(x.E)
	case *sema.Case:
		var out []sema.Expr
		for _, w := range x.Whens {
			out = append(out, leafRefs(w.Cond)...)
			out = append(out, leafRefs(w.Then)...)
		}
		return append(out, leafRefs(x.Else)...)
	case *sema.ExtractYear:
		return leafRefs(x.E)
	}
	return nil
}

// genArrayGrow generates the array-doubling routine (alloc + word copy).
func (c *compiler) genArrayGrow(id int, gBase, gCount, gCap uint32, stride uint32) *wasm.FuncBuilder {
	f := c.b.NewFunc(fmt.Sprintf("arr_grow_%d", id), wasm.FuncType{})
	newBase := f.AddLocal(wasm.I32)
	n := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)
	old := f.AddLocal(wasm.I32)

	f.GlobalGet(gCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(int32(stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.LocalSet(newBase)
	f.GlobalGet(gBase)
	f.LocalSet(old)
	// n = count*stride bytes (stride is 8-aligned).
	f.GlobalGet(gCount)
	f.I32Const(int32(stride))
	f.I32Mul()
	f.LocalSet(n)
	emitWordCopy(f, w, newBase, old, func() { f.LocalGet(n) })
	f.LocalGet(newBase)
	f.GlobalSet(gBase)
	f.GlobalGet(gCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.GlobalSet(gCap)
	return f
}

const insertionCutoff = 16

// sortEmit is what a code-generation style decides about the quicksort: how
// an element is addressed, compared and moved. The algorithm is
// genQuicksort's, once, so two styles differ in these emissions and in
// nothing else (§5.3, Fig. 9).
type sortEmit struct {
	isort, qsort string
	// pass lists the parameters behind (lo, hi); every call hands them on
	// unchanged.
	pass []wasm.ValType
	// addr pushes the address of the element whose index pushIdx pushes.
	addr func(f *wasm.FuncBuilder, pushIdx func())
	// scratch pushes the address of scratch tuple n: 0 holds the pivot, 1
	// carries the element insertion sort is placing.
	scratch func(f *wasm.FuncBuilder, n int)
	// less pushes tuple@a < tuple@b.
	less func(g *gen, a, b wasm.Local)
	// move copies the tuple at pushSrc's address to pushDst's.
	move func(f *wasm.FuncBuilder, pushDst, pushSrc func())
	// swap exchanges the tuples at a and b; tmp is a spare i64 local.
	swap func(f *wasm.FuncBuilder, a, b, tmp wasm.Local)
}

// inlinedSort is the quicksort emission of the paper's style (§5.3): array
// base and scratch tuples in globals, the stride a constant, the comparison
// inlined, tuples moved word-wise and fully unrolled — no memcpy exists (§3.1).
func inlinedSort(id int, keys []sema.OrderKey, layout tupleLayout, gBase uint32, gScratch [2]uint32) sortEmit {
	return sortEmit{
		isort: fmt.Sprintf("isort_%d", id),
		qsort: fmt.Sprintf("qsort_%d", id),
		addr: func(f *wasm.FuncBuilder, pushIdx func()) {
			f.GlobalGet(gBase)
			pushIdx()
			f.I32Const(int32(layout.stride))
			f.I32Mul()
			f.I32Add()
		},
		scratch: func(f *wasm.FuncBuilder, n int) { f.GlobalGet(gScratch[n]) },
		less:    func(g *gen, a, b wasm.Local) { emitLess(g, keys, layout, a, b) },
		move: func(f *wasm.FuncBuilder, pushDst, pushSrc func()) {
			for off := uint32(0); off < layout.stride; off += 8 {
				pushDst()
				pushSrc()
				f.I64Load(off)
				f.I64Store(off)
			}
		},
		swap: func(f *wasm.FuncBuilder, a, b, tmp wasm.Local) {
			for off := uint32(0); off < layout.stride; off += 8 {
				f.LocalGet(a)
				f.I64Load(off)
				f.LocalSet(tmp)
				f.LocalGet(a)
				f.LocalGet(b)
				f.I64Load(off)
				f.I64Store(off)
				f.LocalGet(b)
				f.LocalGet(tmp)
				f.I64Store(off)
			}
		},
	}
}

// genQuicksort generates the quicksort of §5.3: recursive, Hoare partitioning
// against a pivot copied to scratch, tail-recursion on the larger partition
// converted to a loop, and insertion sort below the cutoff. It returns the
// function sorting elements [lo, hi).
func (c *compiler) genQuicksort(em sortEmit) *wasm.FuncBuilder {
	typ := wasm.FuncType{Params: append([]wasm.ValType{wasm.I32, wasm.I32}, em.pass...)}
	pushPass := func(f *wasm.FuncBuilder) {
		for i := range em.pass {
			f.LocalGet(f.Param(2 + i))
		}
	}
	local := func(f *wasm.FuncBuilder, l wasm.Local) func() { return func() { f.LocalGet(l) } }

	// --- Insertion sort --------------------------------------------------
	isort := c.b.NewFunc(em.isort, typ)
	{
		f := isort
		g := &gen{c: c, f: f}
		k := f.AddLocal(wasm.I32)
		m := f.AddLocal(wasm.I32)
		carrier := f.AddLocal(wasm.I32)
		cur := f.AddLocal(wasm.I32)
		prev := f.AddLocal(wasm.I32)

		em.scratch(f, 1)
		f.LocalSet(carrier)
		// for k = lo+1; k < hi; k++
		f.LocalGet(f.Param(0))
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(k)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(k)
		f.LocalGet(f.Param(1))
		f.Op(wasm.OpI32GeS)
		f.BrIf(1)
		// carrier = arr[k]
		em.move(f, local(f, carrier), func() { em.addr(f, local(f, k)) })
		// m = k; while m > lo && carrier < arr[m-1]: arr[m] = arr[m-1]; m--
		f.LocalGet(k)
		f.LocalSet(m)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(m)
		f.LocalGet(f.Param(0))
		f.Op(wasm.OpI32LeS)
		f.BrIf(1)
		// prev = &arr[m-1]
		em.addr(f, func() {
			f.LocalGet(m)
			f.I32Const(1)
			f.I32Sub()
		})
		f.LocalSet(prev)
		em.less(g, carrier, prev)
		f.I32Eqz()
		f.BrIf(1)
		// arr[m] = arr[m-1]
		em.addr(f, local(f, m))
		f.LocalSet(cur)
		em.move(f, local(f, cur), local(f, prev))
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(m)
		f.Br(0)
		f.End()
		f.End()
		// arr[m] = carrier
		em.addr(f, local(f, m))
		f.LocalSet(cur)
		em.move(f, local(f, cur), local(f, carrier))
		f.LocalAddI32(k, 1)
		f.Br(0)
		f.End()
		f.End()
		c.noteErr(g)
	}

	// --- Quicksort ---------------------------------------------------------
	qs := c.b.NewFunc(em.qsort, typ)
	{
		f := qs
		g := &gen{c: c, f: f}
		lo := f.AddLocal(wasm.I32)
		hi := f.AddLocal(wasm.I32)
		i := f.AddLocal(wasm.I32)
		j := f.AddLocal(wasm.I32)
		mid := f.AddLocal(wasm.I32)
		pivot := f.AddLocal(wasm.I32)
		pi := f.AddLocal(wasm.I32)
		pj := f.AddLocal(wasm.I32)
		tmp := f.AddLocal(wasm.I64)

		f.LocalGet(f.Param(0))
		f.LocalSet(lo)
		f.LocalGet(f.Param(1))
		f.LocalSet(hi)
		em.scratch(f, 0)
		f.LocalSet(pivot)

		// while hi - lo > cutoff
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(hi)
		f.LocalGet(lo)
		f.I32Sub()
		f.I32Const(insertionCutoff)
		f.Op(wasm.OpI32LeS)
		f.BrIf(1)

		// pivot = arr[lo + (hi-lo)/2] (copied out; median-of-three omitted
		// in favor of the paper's plain Hoare scheme with a mid pivot).
		f.LocalGet(lo)
		f.LocalGet(hi)
		f.LocalGet(lo)
		f.I32Sub()
		f.I32Const(1)
		f.Op(wasm.OpI32ShrU)
		f.I32Add()
		f.LocalSet(mid)
		em.move(f, local(f, pivot), func() { em.addr(f, local(f, mid)) })

		// Hoare partition: i = lo-1, j = hi
		f.LocalGet(lo)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(i)
		f.LocalGet(hi)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid) // partition done
		f.Loop(wasm.BlockVoid)
		// do i++ while arr[i] < pivot
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalAddI32(i, 1)
		em.addr(f, local(f, i))
		f.LocalSet(pi)
		em.less(g, pi, pivot)
		f.I32Eqz()
		f.BrIf(1)
		f.Br(0)
		f.End()
		f.End()
		// do j-- while pivot < arr[j]
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(j)
		em.addr(f, local(f, j))
		f.LocalSet(pj)
		em.less(g, pivot, pj)
		f.I32Eqz()
		f.BrIf(1)
		f.Br(0)
		f.End()
		f.End()
		// if i >= j: break
		f.LocalGet(i)
		f.LocalGet(j)
		f.Op(wasm.OpI32GeS)
		f.BrIf(1)
		em.swap(f, pi, pj, tmp)
		f.Br(0)
		f.End()
		f.End()
		// Recurse into the smaller partition and loop on the larger one,
		// bounding recursion depth to O(log n).
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
		f.LocalGet(lo)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		pushPass(f)
		f.CallBuilder(qs)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(lo)
		f.Else()
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalGet(hi)
		pushPass(f)
		f.CallBuilder(qs)
		f.LocalGet(j)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(hi)
		f.End()
		f.Br(0)
		f.End()
		f.End()
		// insertion sort the remainder
		f.LocalGet(lo)
		f.LocalGet(hi)
		pushPass(f)
		f.Call(isort.Index)
		c.noteErr(g)
	}
	return qs
}

// Exports of the sorted-run barrier.
const (
	sortRecvExport  = "q_sort_recv"
	sortMergeExport = "q_sort_merge"
)

// genSortMerge emits the sorted-run barrier's exports and returns its
// metadata. q_sort_recv(n) -> i32 allocates room for 2n tuples — the gathered
// runs and one merge target — points the sort array at the first n and
// returns its base. q_sort_merge(a, b, end, out) merges the sorted runs at
// [a, b) and [b, end) into out, taking the left run's tuple on ties. It is
// built from the quicksort's own comparison and move (em.less, em.move), so
// the ORDER BY rule exists only in the module.
func (c *compiler) genSortMerge(em sortEmit, stride, gBase, gCount uint32) *SortMerge {
	f := c.genRecvFunc(sortRecvExport, 2*stride, gBase)
	f.LocalGet(f.Param(0)) // count = n; the base below stays the result
	f.GlobalSet(gCount)

	f = c.b.NewFunc(sortMergeExport, wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}})
	c.b.Export(sortMergeExport, wasm.ExternFunc, f.Index)
	g := &gen{c: c, f: f}
	i, mid, end, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
	j := f.AddLocal(wasm.I32)
	src := f.AddLocal(wasm.I32)
	take := func(l wasm.Local) { // src = l; l += stride
		f.LocalGet(l)
		f.LocalTee(src)
		f.I32Const(int32(stride))
		f.I32Add()
		f.LocalSet(l)
	}
	f.LocalGet(mid)
	f.LocalSet(j)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	// The left run's tuple, unless the left run is done or the right run's is
	// strictly less; both done ends the merge.
	f.LocalGet(i)
	f.LocalGet(mid)
	f.I32LtU()
	f.If(wasm.BlockOf(wasm.I32))
	f.LocalGet(j)
	f.LocalGet(end)
	f.I32GeU()
	f.If(wasm.BlockOf(wasm.I32))
	f.I32Const(1)
	f.Else()
	em.less(g, j, i)
	f.I32Eqz()
	f.End()
	f.Else()
	f.LocalGet(j)
	f.LocalGet(end)
	f.I32GeU()
	f.BrIf(2)
	f.I32Const(0)
	f.End()
	f.If(wasm.BlockVoid)
	take(i)
	f.Else()
	take(j)
	f.End()
	em.move(f, func() { f.LocalGet(out) }, func() { f.LocalGet(src) })
	f.LocalAddI32(out, int32(stride))
	f.Br(0)
	f.End()
	f.End()
	c.noteErr(g)
	return &SortMerge{
		RecvExport:  sortRecvExport,
		MergeExport: sortMergeExport,
		BaseGlobal:  gBase,
		CountGlobal: gCount,
		Stride:      stride,
	}
}

// emitLess pushes the multi-key "tuple@a < tuple@b" of ORDER BY, honoring
// ASC/DESC: for each key, if the fields differ the result is their
// comparison; otherwise the next key decides. It is the only definition of the
// order — inlined at the quicksort's and the sorted-run merge's use sites, or
// the body of the comparator a library sort and its merge call.
func emitLess(g *gen, keys []sema.OrderKey, layout tupleLayout, a, b wasm.Local) {
	f := g.f
	f.Block(wasm.BlockOf(wasm.I32))
	for _, k := range keys {
		fld, ok := layout.find(k.Expr)
		if !ok {
			g.fail("sort key %s not materialized", k.Expr)
			break
		}
		lo, hi := a, b
		if k.Desc {
			lo, hi = b, a
		}
		// differ pushes lo < hi, then lo != hi: where the fields differ the
		// comparison is the result.
		differ := func(lt, ne wasm.Opcode) {
			g.loadField(lo, fld)
			g.loadField(hi, fld)
			f.Op(lt)
			g.loadField(lo, fld)
			g.loadField(hi, fld)
			f.Op(ne)
		}
		switch fld.t.Kind {
		case types.Char:
			cmp := g.c.strcmpFunc(fld.t.Length, fld.t.Length)
			r := f.AddLocal(wasm.I32)
			g.loadField(lo, fld)
			g.loadField(hi, fld)
			f.Call(cmp.Index)
			f.LocalSet(r)
			// if r != 0: result is r < 0
			f.LocalGet(r)
			f.I32Const(0)
			f.Op(wasm.OpI32LtS)
			f.LocalGet(r)
		case types.Float64:
			differ(wasm.OpF64Lt, wasm.OpF64Ne)
		case types.Int64, types.Decimal:
			differ(wasm.OpI64LtS, wasm.OpI64Ne)
		default: // i32-class
			differ(wasm.OpI32LtS, wasm.OpI32Ne)
		}
		f.BrIf(0)
		f.Drop()
	}
	f.I32Const(0) // all keys equal: not less
	f.End()
}
