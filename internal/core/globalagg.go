package core

import (
	"math"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// produceGlobalAgg compiles keyless aggregation into module globals — no
// hash table exists for a single group; the incoming pipeline updates the
// aggregate registers directly (data-centric compilation as in HyPer and
// mutable). MIN/MAX updates are branch-free via select (§8.2, Fig. 7d).
func (c *compiler) produceGlobalAgg(gr *plan.Group, consume consumer) error {
	states, gCount, fold := c.newGlobalAggStates(gr)

	err := c.produce(gr.Input, func(g *gen, e *env) {
		// The matched-row counter folds like a COUNT(*).
		g.emitAggFold(sema.AggCountStar, g.globalAgg(gCount, types.TInt64), foldVal{})
		for i, a := range gr.Aggs {
			g.emitAggFold(a.Func, g.globalAgg(states[i].glob, a.T), foldVal{push: func() { g.expr(e, a.Arg) }, expr: true})
		}
	})
	if err != nil {
		return err
	}
	c.declareFold(gr, fold)
	return c.emitGlobalAggOutput(gr, states, gCount, consume)
}

type globalAggState struct {
	glob uint32
	t    wasm.ValType
}

// aggMergeExport is the fold export of keyless aggregation.
const aggMergeExport = "q_agg_merge"

// newGlobalAggStates allocates one global per aggregate (initialized to the
// aggregate's identity) plus a matched-row counter, and emits
// q_agg_merge(count, s0, …): fold the keyless state of another worker — the
// values of the globals the returned FoldMerge lists, passed as arguments —
// into this instance's.
func (c *compiler) newGlobalAggStates(gr *plan.Group) ([]globalAggState, uint32, *FoldMerge) {
	states := make([]globalAggState, len(gr.Aggs))
	gCount := c.b.AddGlobal(wasm.I64, true, 0)
	fold := &FoldMerge{MergeExport: aggMergeExport, Globals: []uint32{gCount}}
	params := []wasm.ValType{wasm.I64}
	for i, a := range gr.Aggs {
		states[i] = globalAggState{glob: c.b.AddGlobal(wasmType(a.T), true, 0), t: wasmType(a.T)}
		fold.Globals = append(fold.Globals, states[i].glob)
		params = append(params, states[i].t)
		st := states[i]
		a := a
		c.initSteps = append(c.initSteps, func(g *gen) {
			f := g.f
			switch {
			case a.Func == sema.AggMin && st.t == wasm.I64:
				f.I64Const(1<<63 - 1)
			case a.Func == sema.AggMax && st.t == wasm.I64:
				f.I64Const(-1 << 63)
			case a.Func == sema.AggMin && st.t == wasm.F64:
				f.F64Const(math.Inf(1))
			case a.Func == sema.AggMax && st.t == wasm.F64:
				f.F64Const(math.Inf(-1))
			case a.Func == sema.AggMin && st.t == wasm.I32:
				f.I32Const(1<<31 - 1)
			case a.Func == sema.AggMax && st.t == wasm.I32:
				f.I32Const(-1 << 31)
			case st.t == wasm.F64:
				f.F64Const(0)
			case st.t == wasm.I32:
				f.I32Const(0)
			default:
				f.I64Const(0)
			}
			f.GlobalSet(st.glob)
		})
	}

	f := c.b.NewFunc(aggMergeExport, wasm.FuncType{Params: params})
	c.b.Export(aggMergeExport, wasm.ExternFunc, f.Index)
	g := &gen{c: c, f: f}
	g.emitAggFold(sema.AggCountStar, g.globalAgg(gCount, types.TInt64), foldVal{push: func() { f.LocalGet(f.Param(0)) }, partial: true})
	for i, a := range gr.Aggs {
		p := f.Param(i + 1)
		g.emitAggFold(a.Func, g.globalAgg(states[i].glob, a.T), foldVal{push: func() { f.LocalGet(p) }, partial: true})
	}
	c.noteErr(g)
	return states, gCount, fold
}

// emitGlobalAggOutput creates the run-once pipeline producing the single
// output row; MIN/MAX over zero rows fall back to 0 (this system's
// convention across all engines).
func (c *compiler) emitGlobalAggOutput(gr *plan.Group, states []globalAggState, gCount uint32, consume consumer) error {
	g := c.newPipeline(PipeRunOnce, -1, 0)
	f := g.f
	e := &env{}
	for i, a := range gr.Aggs {
		st := states[i]
		a := a
		e.add(&sema.AggRef{Idx: i, T: a.T}, func() {
			f.GlobalGet(st.glob)
			if a.Func == sema.AggMin || a.Func == sema.AggMax {
				switch st.t {
				case wasm.F64:
					f.F64Const(0)
				case wasm.I32:
					f.I32Const(0)
				default:
					f.I64Const(0)
				}
				f.GlobalGet(gCount)
				f.Op(wasm.OpI64Eqz)
				f.I32Eqz()
				f.Select()
			}
		})
	}
	consume(g, e)
	f.I32Const(0)
	return g.err
}
