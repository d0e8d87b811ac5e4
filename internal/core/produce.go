package core

import (
	"fmt"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// resultConsumer emits the final step of the last pipeline: write the output
// row to the result buffer, flushing to the host when the buffer fills
// (§6.2), and stop early once LIMIT is reached.
func (c *compiler) resultConsumer(proj *plan.Project) consumer {
	return func(g *gen, e *env) {
		f := g.f
		// Flush when full: cursor = result_flush(cursor).
		f.GlobalGet(c.gCursor)
		f.I32Const(resultCapacityRows)
		f.I32GeU()
		f.If(wasm.BlockVoid)
		f.GlobalGet(c.gCursor)
		f.Call(c.fnResultFlush)
		f.GlobalSet(c.gCursor)
		f.End()

		// rowPtr = ResultBase + cursor*stride
		rowPtr := f.AddLocal(wasm.I32)
		f.GlobalGet(c.gCursor)
		f.I32Const(int32(c.resultLayout.stride))
		f.I32Mul()
		f.I32Const(int32(c.out.ResultBase))
		f.I32Add()
		f.LocalSet(rowPtr)

		for _, fld := range c.resultLayout.fields {
			fld := fld
			g.storeFieldFromStack(rowPtr, fld, func() { g.expr(e, fld.expr) })
		}

		// cursor++
		f.GlobalGet(c.gCursor)
		f.I32Const(1)
		f.I32Add()
		f.GlobalSet(c.gCursor)

		// LIMIT: totalRows++; if totalRows >= N return 1. A parameterized
		// limit is read from its parameter-region slot (i64), so the same
		// module serves every LIMIT value; a baked limit stays an i32
		// immediate.
		if c.out.LimitSlot >= 0 {
			slot, ok := c.paramSlots[c.out.LimitSlot]
			if !ok {
				g.fail("limit parameter ?%d has no slot", c.out.LimitSlot)
				return
			}
			f.GlobalGet(c.gTotalRows)
			f.I32Const(1)
			f.I32Add()
			f.GlobalSet(c.gTotalRows)
			f.GlobalGet(c.gTotalRows)
			f.Op(wasm.OpI64ExtendI32U)
			f.I32Const(0)
			f.I64Load(uint32(paramBase) + slot.Off)
			f.Op(wasm.OpI64GeS)
			f.If(wasm.BlockVoid)
			f.I32Const(1)
			f.Return()
			f.End()
		} else if c.out.Limit >= 0 {
			f.GlobalGet(c.gTotalRows)
			f.I32Const(1)
			f.I32Add()
			f.GlobalSet(c.gTotalRows)
			f.GlobalGet(c.gTotalRows)
			f.I32Const(int32(c.out.Limit))
			f.I32GeU()
			f.If(wasm.BlockVoid)
			f.I32Const(1)
			f.Return()
			f.End()
		}
	}
}

// produceGroup compiles hash-based grouping & aggregation (§4.3): the
// feeding pipeline updates a hash table; a new pipeline then scans its
// entries. The style picks the table — generated for this query and inlined,
// or the type-agnostic library — and nothing else.
func (c *compiler) produceGroup(gr *plan.Group, consume consumer) error {
	// Entry fields: group keys followed by one slot per aggregate
	// (referenced as AggRef in the post-aggregation domain).
	fields := append([]sema.Expr{}, gr.Keys...)
	var aggSlots []*sema.AggRef
	for i, a := range gr.Aggs {
		ref := &sema.AggRef{Idx: i, T: a.T}
		aggSlots = append(aggSlots, ref)
		fields = append(fields, ref)
		if a.Arg != nil && a.Arg.Type().Kind == types.Char {
			return fmt.Errorf("core: aggregates over CHAR are not supported")
		}
	}
	name := fmt.Sprintf("group%d", len(c.pipes))
	var tbl groupTable
	// A library table has no fold barrier: what one worker inserted no other
	// sees.
	var fold *FoldMerge
	if c.style.LibraryHT {
		tbl = c.newLibHT(name, fields, gr.Keys, gr.Keys, false)
	} else {
		ht := c.newHashTable(name, fields, gr.Keys)
		// Merge exports of the fold barrier (dead code on serial runs).
		fold = c.genGroupMerge(gr, ht, aggSlots)
		tbl = ht
	}
	layout := tbl.fields()
	aggField := func(i int) field {
		fld, _ := layout.find(aggSlots[i])
		return fld
	}

	// Feeding pipeline: insert-or-update.
	err := c.produce(gr.Input, func(g *gen, e *env) {
		f := g.f
		keys := tbl.keySrcs(g, e, gr.Keys)
		// Aggregate arguments, computed once per tuple.
		argLocals := make([]wasm.Local, len(gr.Aggs))
		for i, a := range gr.Aggs {
			if a.Arg == nil {
				continue
			}
			l := f.AddLocal(wasmType(a.Arg.Type()))
			g.expr(e, a.Arg)
			f.LocalSet(l)
			argLocals[i] = l
		}
		tbl.upsert(g, keys, func(entry wasm.Local) {
			// Claim: store keys, init aggregates.
			for i, k := range gr.Keys {
				fld, _ := layout.find(k)
				g.storeFieldFromStack(entry, fld, keys[i].pushVal)
			}
			for i, a := range gr.Aggs {
				g.emitAggInit(entry, aggField(i), a, argLocals[i])
			}
		}, func(entry wasm.Local) {
			for i, a := range gr.Aggs {
				arg := argLocals[i]
				g.emitAggFold(a.Func, g.fieldAgg(entry, aggField(i)), foldVal{push: func() { f.LocalGet(arg) }})
			}
		})
	})
	if err != nil {
		return err
	}
	if fold != nil {
		c.declareFold(gr, fold)
	} else {
		c.serialOnly(fallbackUnmergeable)
	}

	// Scanning pipeline: bind KeyRef/AggRef to entry fields.
	return tbl.scan(c, func(g *gen, entry wasm.Local) {
		e := &env{}
		for i, k := range gr.Keys {
			kf, _ := layout.find(k)
			e.add(&sema.KeyRef{Idx: i, T: k.Type()}, func() { g.loadField(entry, kf) })
		}
		for i := range gr.Aggs {
			af := aggField(i)
			e.add(aggSlots[i], func() { g.loadField(entry, af) })
		}
		consume(g, e)
	})
}

// emitAggInit initializes an aggregate slot from the first tuple of a group.
func (g *gen) emitAggInit(entry wasm.Local, fld field, a sema.Aggregate, arg wasm.Local) {
	f := g.f
	switch a.Func {
	case sema.AggCountStar, sema.AggCount:
		g.storeFieldFromStack(entry, fld, func() { f.I64Const(1) })
	case sema.AggSum, sema.AggMin, sema.AggMax:
		g.storeFieldFromStack(entry, fld, func() { f.LocalGet(arg) })
	}
}

// aggState is where one aggregate's running state lives: a module global
// (keyless aggregation) or a field of a group-table entry.
type aggState struct {
	t     types.Type
	load  func()
	store func(push func())
}

func (g *gen) globalAgg(glob uint32, t types.Type) aggState {
	f := g.f
	return aggState{t, func() { f.GlobalGet(glob) }, func(push func()) { push(); f.GlobalSet(glob) }}
}

func (g *gen) fieldAgg(ptr wasm.Local, fld field) aggState {
	return aggState{fld.t, func() { g.loadField(ptr, fld) }, func(push func()) { g.storeFieldFromStack(ptr, fld, push) }}
}

// foldVal is the value an aggregate state absorbs: one row's argument, or —
// partial — the state another worker accumulated, of which COUNT adds the
// value where a row counts 1. push must be repeatable; expr marks it as an
// expression rather than a local or a field, so a rule that reads it twice
// evaluates it once.
type foldVal struct {
	push    func()
	partial bool
	expr    bool
}

// emitAggFold is the one fold rule of the generated code, state ← state ⊕ v:
// the per-row update of keyless and grouped aggregation and the partial-state
// merge of both fold barriers are this function, so they cannot drift apart,
// and an aggregate it does not know fails the compilation. MIN and MAX are
// branch-free via select (§8.2, Fig. 7d).
func (g *gen) emitAggFold(fn sema.AggFunc, st aggState, v foldVal) {
	f := g.f
	switch fn {
	case sema.AggCountStar, sema.AggCount:
		st.store(func() {
			st.load()
			if v.partial {
				v.push()
			} else {
				f.I64Const(1)
			}
			f.I64Add()
		})
	case sema.AggSum:
		st.store(func() {
			st.load()
			v.push()
			if st.t.Kind == types.Float64 {
				f.F64Add()
			} else {
				f.I64Add()
			}
		})
	case sema.AggMin, sema.AggMax:
		push := v.push
		if v.expr {
			l := f.AddLocal(wasmType(st.t))
			v.push()
			f.LocalSet(l)
			push = func() { f.LocalGet(l) }
		}
		st.store(func() {
			// select(new, old, cmp)
			push()
			st.load()
			push()
			st.load()
			f.Op(minMaxCmp(fn, st.t))
			f.Select()
		})
	default:
		g.fail("no fold rule for aggregate %v", fn)
	}
}

// declareFold attaches the fold barrier of the aggregation just fed to the
// pipeline that fed it. Float addition is not associative: folding partial
// sums could differ from the serial row-order sum in the last ulps, so such a
// module is never spread over a pool.
func (c *compiler) declareFold(gr *plan.Group, fm *FoldMerge) {
	c.addBarrier(Barrier{Fold: fm})
	for _, a := range gr.Aggs {
		if a.Func == sema.AggSum && a.T.Kind == types.Float64 {
			c.serialOnly(fallbackFloatSum)
		}
	}
}

func minMaxCmp(fn sema.AggFunc, t types.Type) wasm.Opcode {
	lt := fn == sema.AggMin
	switch t.Kind {
	case types.Int32, types.Date, types.Bool:
		if lt {
			return wasm.OpI32LtS
		}
		return wasm.OpI32GtS
	case types.Int64, types.Decimal:
		if lt {
			return wasm.OpI64LtS
		}
		return wasm.OpI64GtS
	case types.Float64:
		if lt {
			return wasm.OpF64Lt
		}
		return wasm.OpF64Gt
	}
	panic("core: no min/max comparison")
}

// emitFloatKeysNotNaN pushes, for each Float64 key, a self-equality check
// (false only for NaN) and ANDs them into one i32 condition. Returns false —
// emitting nothing — when no key is a float.
func emitFloatKeysNotNaN(f *wasm.FuncBuilder, keys []keySrc) bool {
	emitted := false
	for _, k := range keys {
		if k.t.Kind != types.Float64 {
			continue
		}
		k.pushVal()
		k.pushVal()
		f.Op(wasm.OpF64Eq)
		if emitted {
			f.I32And()
		}
		emitted = true
	}
	return emitted
}

// buildSide is what produceJoin asks of the code-generation style: the
// ad-hoc build-once table of joinbuild.go, probed inline, or the library
// table of libstyle.go, where every insert and every probe candidate costs a
// function call (Listing 3).
type buildSide interface {
	// append stores the current build-side tuple under its keys.
	append(g *gen, keys []keySrc, e *env)
	// probe evaluates the probe keys in e and emits match once per build
	// tuple with equal keys, in e extended by that tuple's fields.
	probe(g *gen, e *env, keys []sema.Expr, match consumer)
}

// produceJoin compiles a simple hash join (§4.3): the build pipeline stores
// the build-side tuples, a barrier (ad-hoc tables only) turns them into a
// table, and the probe side continues its pipeline through the table's probe
// loop. The style picks the table and nothing else.
func (c *compiler) produceJoin(j *plan.HashJoin, consume consumer) error {
	// Payload: every referenced column of the build side, plus the keys.
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
	name := fmt.Sprintf("join%d", len(c.pipes))
	var tbl buildSide
	// A library table has no build barrier: what one worker inserted no other
	// sees.
	var jt *joinTable
	if c.style.LibraryHT {
		tbl = c.newLibHT(name, fields, j.BuildKeys, j.ProbeKeys, true)
	} else {
		jt = c.newJoinTable(name, fields, j.BuildKeys, j.ProbeKeys)
		tbl = jt
	}

	// Build pipeline: duplicates coexist. Float keys hash through -0.0→+0.0
	// canonicalization on both sides, because the key comparison's F64Eq
	// treats the two zeros as equal.
	err := c.produce(j.Build, func(g *gen, e *env) {
		f := g.f
		keys := g.keySrcsFromEnv(e, j.BuildKeys)
		// A NaN key can never satisfy the probe's F64Eq, so keeping it would
		// only bloat the table with unreachable tuples — skip the row.
		nanGuard := emitFloatKeysNotNaN(f, keys)
		if nanGuard {
			f.If(wasm.BlockVoid)
		}
		tbl.append(g, keys, e)
		if nanGuard {
			f.End()
		}
	})
	if err != nil {
		return err
	}
	if jt != nil {
		c.genJoinBarrier(jt)
	} else {
		c.serialOnly(fallbackUnmergeable)
	}

	// Probe side: continue the enclosing pipeline.
	return c.produce(j.Probe, func(g *gen, e *env) {
		tbl.probe(g, e, j.ProbeKeys, filterConsumer(j.Residual, consume))
	})
}
