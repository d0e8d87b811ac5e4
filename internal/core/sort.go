package core

import (
	"fmt"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// produceSort compiles ORDER BY via the paper's §5 running example: the
// feeding pipeline materializes tuples into a growable array; a generated,
// fully specialized recursive quicksort (Hoare partitioning, median-of-three
// pivot, insertion sort below a cutoff) sorts it with the multi-key
// comparison *inlined* at every use site; a final pipeline scans the sorted
// array.
func (c *compiler) produceSort(s *plan.Sort, consume consumer) error {
	// Tuple fields: sort keys plus everything downstream needs. Downstream
	// expressions live in the same domain as the sort input, so collecting
	// the leaf references of select/order expressions suffices.
	fieldSet := dedupExprs(c.sortFieldExprs(s))
	layout := buildLayout(fieldSet, 0)

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
		f.I32Const(int32(layout.stride))
		f.Call(c.allocFunc().Index)
		f.GlobalSet(gScratchA)
		f.I32Const(int32(layout.stride))
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
		f.I32Const(int32(layout.stride))
		f.I32Mul()
		f.I32Add()
		f.LocalSet(ptr)
		for _, fld := range layout.fields {
			fld := fld
			g.storeFieldFromStack(ptr, fld, func() { g.expr(e, fld.expr) })
		}
		f.GlobalGet(gCount)
		f.I32Const(1)
		f.I32Add()
		f.GlobalSet(gCount)
	})
	if err != nil {
		return err
	}

	// The generated quicksort and its helpers.
	qs := c.genQuicksort(sortID, s.Keys, layout, gBase, gScratchA, gScratchB)

	// Receive export of the sorted-run barrier (dead code on serial runs).
	runs := c.genSortMerge(s, layout, gBase, gCount)

	// Run-once pipeline invoking qsort(0, count): under a pool every worker
	// calls it on its own array, and the barrier merges the sorted runs.
	g := c.newPipeline(PipeRunOnce, -1, 0)
	g.f.I32Const(0)
	g.f.GlobalGet(gCount)
	g.f.Call(qs.Index)
	g.f.I32Const(0)
	c.addBarrier(Barrier{Sort: runs})

	// Scan pipeline over the sorted array.
	g = c.newPipeline(PipeScanArray, -1, gCount)
	f := g.f
	i := f.AddLocal(wasm.I32)
	ptr := f.AddLocal(wasm.I32)
	f.LocalGet(f.Param(0))
	f.LocalSet(i)
	e := &env{}
	for _, fld := range layout.fields {
		fld := fld
		e.add(fld.expr, func() { g.loadField(ptr, fld) })
	}
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	f.GlobalGet(gBase)
	f.LocalGet(i)
	f.I32Const(int32(layout.stride))
	f.I32Mul()
	f.I32Add()
	f.LocalSet(ptr)
	consume(g, e)
	f.LocalGet(i)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	return g.err
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

	f.GlobalGet(gCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(int32(stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.LocalSet(newBase)
	// n = count*stride bytes; copy as 8-byte words (stride is 8-aligned).
	f.GlobalGet(gCount)
	f.I32Const(int32(stride))
	f.I32Mul()
	f.LocalSet(n)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(w)
	f.LocalGet(n)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(newBase)
	f.LocalGet(w)
	f.I32Add()
	f.GlobalGet(gBase)
	f.LocalGet(w)
	f.I32Add()
	f.I64Load(0)
	f.I64Store(0)
	f.LocalGet(w)
	f.I32Const(8)
	f.I32Add()
	f.LocalSet(w)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(newBase)
	f.GlobalSet(gBase)
	f.GlobalGet(gCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.GlobalSet(gCap)
	return f
}

const insertionCutoff = 16

// genQuicksort generates the specialized quicksort of §5.3: recursive, Hoare
// partitioning against a pivot copied to scratch, the multi-key less-than
// comparison inlined at each of its call sites, tail-recursion on the right
// partition converted to a loop, and insertion sort below the cutoff.
func (c *compiler) genQuicksort(id int, keys []sema.OrderKey, layout tupleLayout, gBase, gScratchA, gScratchB uint32) *wasm.FuncBuilder {
	stride := int32(layout.stride)

	// elemPtr pushes gBase + i*stride for the index in local i.
	elemPtr := func(f *wasm.FuncBuilder, idx wasm.Local) {
		f.GlobalGet(gBase)
		f.LocalGet(idx)
		f.I32Const(stride)
		f.I32Mul()
		f.I32Add()
	}

	// copyTuple emits a word-wise copy of one tuple from src to dst
	// (pointer push functions), fully unrolled — no memcpy exists (§3.1).
	copyTuple := func(f *wasm.FuncBuilder, pushDst, pushSrc func()) {
		for off := int32(0); off < stride; off += 8 {
			pushDst()
			pushSrc()
			f.I64Load(uint32(off))
			f.I64Store(uint32(off))
		}
	}

	// emitLess generates the inlined multi-key "tuple@a < tuple@b"
	// comparison honoring ASC/DESC: for each key, if the fields differ the
	// result is their comparison; otherwise the next key decides.
	emitLess := func(g *gen, a, b wasm.Local) {
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
				f.BrIf(0)
				f.Drop()
			case types.Float64:
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.Op(wasm.OpF64Lt)
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.Op(wasm.OpF64Ne)
				f.BrIf(0)
				f.Drop()
			case types.Int64, types.Decimal:
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.Op(wasm.OpI64LtS)
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.Op(wasm.OpI64Ne)
				f.BrIf(0)
				f.Drop()
			default: // i32-class
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.Op(wasm.OpI32LtS)
				g.loadField(lo, fld)
				g.loadField(hi, fld)
				f.I32Ne()
				f.BrIf(0)
				f.Drop()
			}
		}
		f.I32Const(0) // all keys equal: not less
		f.End()
	}

	// --- Insertion sort --------------------------------------------------
	isort := c.b.NewFunc(fmt.Sprintf("isort_%d", id),
		wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	{
		f := isort
		g := &gen{c: c, f: f}
		k := f.AddLocal(wasm.I32)
		m := f.AddLocal(wasm.I32)
		carrier := f.AddLocal(wasm.I32)
		cur := f.AddLocal(wasm.I32)
		prev := f.AddLocal(wasm.I32)

		f.GlobalGet(gScratchB)
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
		copyTuple(f, func() { f.LocalGet(carrier) }, func() { elemPtr(f, k) })
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
		f.GlobalGet(gBase)
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.I32Const(stride)
		f.I32Mul()
		f.I32Add()
		f.LocalSet(prev)
		emitLess(g, carrier, prev)
		f.I32Eqz()
		f.BrIf(1)
		// arr[m] = arr[m-1]
		elemPtr(f, m)
		f.LocalSet(cur)
		copyTuple(f, func() { f.LocalGet(cur) }, func() { f.LocalGet(prev) })
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Sub()
		f.LocalSet(m)
		f.Br(0)
		f.End()
		f.End()
		// arr[m] = carrier
		elemPtr(f, m)
		f.LocalSet(cur)
		copyTuple(f, func() { f.LocalGet(cur) }, func() { f.LocalGet(carrier) })
		f.LocalGet(k)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(k)
		f.Br(0)
		f.End()
		f.End()
		if g.err != nil {
			panic(g.err)
		}
	}

	// --- Quicksort ---------------------------------------------------------
	qs := c.b.NewFunc(fmt.Sprintf("qsort_%d", id),
		wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
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
		f.GlobalGet(gScratchA)
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
		copyTuple(f, func() { f.LocalGet(pivot) }, func() { elemPtr(f, mid) })

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
		f.LocalGet(i)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(i)
		elemPtr(f, i)
		f.LocalSet(pi)
		emitLess(g, pi, pivot)
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
		elemPtr(f, j)
		f.LocalSet(pj)
		emitLess(g, pivot, pj)
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
		// swap arr[i], arr[j] — word-wise, unrolled
		for off := int32(0); off < stride; off += 8 {
			f.LocalGet(pi)
			f.I64Load(uint32(off))
			f.LocalSet(tmp)
			f.LocalGet(pi)
			f.LocalGet(pj)
			f.I64Load(uint32(off))
			f.I64Store(uint32(off))
			f.LocalGet(pj)
			f.LocalGet(tmp)
			f.I64Store(uint32(off))
		}
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
		f.Call(isort.Index)
		if g.err != nil {
			panic(g.err)
		}
	}
	return qs
}
