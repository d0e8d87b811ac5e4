package core

import (
	"fmt"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// produceJoinLib compiles a hash join through the generic library hash
// table: every insert and every probe candidate costs a function call
// (Listing 3).
func (c *compiler) produceJoinLib(j *plan.HashJoin, consume consumer) error {
	buildTables := j.Build.Tables()
	fields := append([]sema.Expr{}, j.BuildKeys...)
	used := map[[2]int]bool{}
	c.collectColumns(used)
	for ti := range c.q.Tables {
		if !buildTables[ti] {
			continue
		}
		tbl := c.q.Tables[ti].Table
		for ci, col := range tbl.Columns {
			if used[[2]int{ti, ci}] {
				fields = append(fields, &sema.ColRef{Table: ti, Col: ci, T: col.Type, Name: col.Name})
			}
		}
	}
	ht := c.newLibHT(fmt.Sprintf("join%d", len(c.pipes)), fields, j.BuildKeys, j.ProbeKeys, true)
	l := c.libs()

	err := c.produce(j.Build, func(g *gen, e *env) {
		f := g.f
		// A NaN key can never satisfy the comparator's F64Eq — skip the row
		// instead of inserting an unreachable entry.
		keys := g.keySrcsFromEnv(e, j.BuildKeys)
		nanGuard := emitFloatKeysNotNaN(f, keys)
		if nanGuard {
			f.If(wasm.BlockVoid)
		}
		// Insert needs only the hash (append to the bucket chain; the key
		// globals feed the probe-side comparator, not the insert).
		h := g.emitHashCanon(keys, ht.canonFloatKeys)
		entry := f.AddLocal(wasm.I32)
		f.GlobalGet(ht.gCtrl)
		f.LocalGet(h)
		f.Call(l.htInsert.Index)
		f.LocalSet(entry)
		for _, fld := range ht.layout.fields {
			fld := fld
			g.storeFieldFromStack(entry, fld, func() { g.expr(e, fld.expr) })
		}
		if nanGuard {
			f.End()
		}
	})
	if err != nil {
		return err
	}
	// A library table has no barrier: what one worker inserted no other sees.
	c.serialOnly(fallbackUnmergeable)

	return c.produce(j.Probe, func(g *gen, e *env) {
		f := g.f
		h := g.emitSetKeysFor(e, ht, j.ProbeKeys)
		entry := f.AddLocal(wasm.I32)
		e2 := &env{binds: append([]binding{}, e.binds...)}
		for _, fld := range ht.layout.fields {
			fld := fld
			e2.add(fld.expr, func() { g.loadField(entry, fld) })
		}
		// entry = lookup(...); while entry: body; entry = next(...)
		f.GlobalGet(ht.gCtrl)
		f.LocalGet(h)
		f.I32Const(int32(ht.cmpIdx))
		f.Call(l.htLookup.Index)
		f.LocalSet(entry)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(entry)
		f.I32Eqz()
		f.BrIf(1)
		if len(j.Residual) > 0 {
			if err := g.conjunction(e2, j.Residual); err != nil {
				return
			}
			f.If(wasm.BlockVoid)
			consume(g, e2)
			f.End()
		} else {
			consume(g, e2)
		}
		f.LocalGet(entry)
		f.LocalGet(h)
		f.I32Const(int32(ht.cmpIdx))
		f.Call(l.htNext.Index)
		f.LocalSet(entry)
		f.Br(0)
		f.End()
		f.End()
	})
}

// produceSortLib materializes sort tuples like the specialized path but
// sorts them through the generic library qsort with a comparator function
// registered in the call_indirect table.
func (c *compiler) produceSortLib(s *plan.Sort, consume consumer) error {
	fieldSet := dedupExprs(c.sortFieldExprs(s))
	layout := buildLayout(fieldSet, 0)

	gBase := c.b.AddGlobal(wasm.I32, true, 0)
	gCount := c.b.AddGlobal(wasm.I32, true, 0)
	gCap := c.b.AddGlobal(wasm.I32, true, 0)

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
	})
	sortID := len(c.pipes)
	growFn := c.genArrayGrow(sortID, gBase, gCount, gCap, layout.stride)

	err := c.produce(s.Input, func(g *gen, e *env) {
		f := g.f
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
	c.serialOnly(fallbackUnmergeable)

	// The comparator: a generated function over two tuple pointers,
	// invoked indirectly by the generic sort for every comparison.
	cmp := c.b.NewFunc(fmt.Sprintf("sortcmp_%d", sortID),
		wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	{
		g := &gen{c: c, f: cmp}
		a, bb := cmp.Param(0), cmp.Param(1)
		emitLessTuple(g, s.Keys, layout, a, bb)
		if g.err != nil {
			return g.err
		}
	}
	cmpIdx := c.registerTableFunc(cmp)

	l := c.libs()
	g := c.newPipeline(PipeRunOnce, -1, 0)
	g.f.GlobalGet(gBase)
	g.f.GlobalGet(gCount)
	g.f.I32Const(int32(layout.stride))
	g.f.I32Const(int32(cmpIdx))
	g.f.Call(l.sort.Index)
	g.f.I32Const(0)

	// Scan pipeline (same as the specialized path).
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

// emitLessTuple emits a standalone multi-key "a < b" over tuple pointers.
func emitLessTuple(g *gen, keys []sema.OrderKey, layout tupleLayout, a, b wasm.Local) {
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
		default:
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
	f.I32Const(0)
	f.End()
}

// producePredicatedGlobalAgg fuses scan, selection, and keyless aggregation
// into one branch-free pipeline: the selection mask participates in every
// aggregate update arithmetically (count += mask; sum += mask ? v : 0 via
// select) — no conditional branch depends on the data, so execution time is
// flat across selectivities (the paper's reading of HyPer in Fig. 6).
func (c *compiler) producePredicatedGlobalAgg(gr *plan.Group, scan *plan.Scan, consume consumer) error {
	states, gCount, fold := c.newGlobalAggStates(gr)

	// Fused scan pipeline.
	g := c.newPipeline(PipeScanTable, scan.TableIdx, 0)
	f := g.f
	row := f.AddLocal(wasm.I32)
	mask := f.AddLocal(wasm.I32)
	f.LocalGet(f.Param(0))
	f.LocalSet(row)
	e := &env{}
	c.bindTableColumns(g, e, scan.TableIdx, row)

	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(row)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	if len(scan.Filter) > 0 {
		if err := g.conjunction(e, scan.Filter); err != nil {
			return err
		}
	} else {
		f.I32Const(1)
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
	f.LocalGet(row)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(row)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	if g.err != nil {
		return g.err
	}
	c.declareFold(gr, fold)
	return c.emitGlobalAggOutput(gr, states, gCount, consume)
}
