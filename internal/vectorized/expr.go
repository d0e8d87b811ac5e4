package vectorized

import (
	"encoding/binary"
	"fmt"
	"math"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

// exec walks the plan, pushing batches to emit.
func (r *Runner) exec(n plan.Node, emit func(*batch) error) error {
	switch x := n.(type) {
	case *plan.Scan:
		return r.execScan(x, emit)
	case *plan.HashJoin:
		return r.execJoin(x, emit)
	case *plan.Group:
		return r.execGroup(x, emit)
	case *plan.Sort:
		return r.execSort(x, emit)
	}
	fail("vectorized: unsupported node %T", n)
	return nil
}

func (r *Runner) execScan(s *plan.Scan, emit func(*batch) error) error {
	total := s.Table.Rows()
	for start := 0; start < total; start += BatchSize {
		end := min(start+BatchSize, total)
		r.resetScratch()
		b := &batch{n: end - start, sel: r.scanSel, start: start}
		b.selN = r.callSel("sel_seq", uint64(r.scanSel), 0, uint64(end-start))
		// One kernel sweep per conjunct: the selection vector is refined
		// condition by condition (Listing 2).
		if err := r.filterEmit(b, s.Filter, emit); err != nil {
			return err
		}
	}
	return nil
}

// filterEmit refines b by each predicate in turn and emits what is left.
func (r *Runner) filterEmit(b *batch, preds []sema.Expr, emit func(*batch) error) error {
	for _, p := range preds {
		if b.selN == 0 {
			break
		}
		r.applyPred(b, p)
	}
	if b.selN == 0 {
		return nil
	}
	return emit(b)
}

// cmpName names a comparison operator as the kernels do.
func cmpName(op sema.OpKind) string { return cmpNames[op-sema.OpEq] }

// applyPred refines b.sel in place: a selection kernel writes row m of its
// output after reading row i ≥ m of its input.
func (r *Runner) applyPred(b *batch, e sema.Expr) {
	keep := func(name string, args ...uint64) {
		args = append(append([]uint64{uint64(b.sel), uint64(b.selN)}, args...), uint64(b.sel))
		b.selN = r.callSel(name, args...)
	}
	switch x := e.(type) {
	case *sema.Binary:
		if x.Op == sema.OpAnd {
			r.applyPred(b, x.L)
			r.applyPred(b, x.R)
			return
		}
		cr, isCol := x.L.(*sema.ColRef)
		c, isConst := x.R.(*sema.Const)
		if !x.Op.IsComparison() || !isCol || !isConst || b.start < 0 {
			break
		}
		// column ⟨op⟩ const on a directly accessible column.
		if elem, ok := elemOf(cr.T); ok && elem != elemU8 {
			if base, ok := r.colBase[[2]int{cr.Table, cr.Col}]; ok {
				imm := uint64(c.V.I)
				if elem == elemF64 {
					imm = math.Float64bits(c.V.F)
				}
				keep(fmt.Sprintf("sel_%s_%s", cmpName(x.Op), elemNames[elem]), uint64(base), uint64(b.start), imm)
				return
			}
		}
		// CHAR equality fast path.
		if cb, ok := r.leafChar(b, cr); ok && cr.T.Kind == types.Char && (x.Op == sema.OpEq || x.Op == sema.OpNe) {
			neg := uint64(0)
			if x.Op == sema.OpNe {
				neg = 1
			}
			keep("sel_eqchar", uint64(cb.addr), uint64(cb.width), uint64(cb.start),
				uint64(r.intern(c.V.S)), uint64(len(c.V.S)), neg)
			return
		}
	case *sema.Like:
		if cb, ok := r.leafChar(b, x.E); ok && !x.Not {
			keep("sel_like", uint64(cb.addr), uint64(cb.width), uint64(cb.start),
				uint64(r.intern(x.Pattern)), uint64(len(x.Pattern)))
			return
		}
	}
	// General path: compute a 0/1 vector, filter non-zeros.
	keep("sel_nonzero", uint64(r.evalVec(b, e).addr))
}

// constBits is a constant's 8-byte slot value.
func constBits(v types.Value) uint64 {
	if v.Type.Kind == types.Float64 {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

// mapVec runs the map kernel name over b into a fresh vector: name(sel, n,
// args..., out).
func (r *Runner) mapVec(b *batch, name string, args ...uint64) vec {
	out := r.newVec()
	args = append(append([]uint64{uint64(b.sel), uint64(b.selN)}, args...), uint64(out.addr))
	r.call(name, args...)
	return out
}

// mapOf evaluates e and runs the map kernel name over it.
func (r *Runner) mapOf(b *batch, name string, e sema.Expr, args ...uint64) vec {
	return r.mapVec(b, name, append([]uint64{uint64(r.evalVec(b, e).addr)}, args...)...)
}

// evalVec computes an expression into a positional value vector (raw i64 or
// f64 bits; booleans as 0/1).
func (r *Runner) evalVec(b *batch, e sema.Expr) vec {
	if v, ok := r.leafVec(b, e); ok {
		return v
	}
	switch x := e.(type) {
	case *sema.ColRef:
		base, mapped := r.colBase[[2]int{x.Table, x.Col}]
		elem, ok := elemOf(x.T)
		if b.start < 0 || !mapped || !ok {
			fail("vectorized: cannot gather column %s of type %s", x, x.T)
		}
		return r.mapVec(b, "gather_"+elemNames[elem], uint64(base), uint64(b.start))
	case *sema.Const:
		return r.mapVec(b, "fill", constBits(x.V))
	case *sema.Binary:
		return r.evalBinaryVec(b, x)
	case *sema.Not:
		return r.mapOf(b, "map_not", x.E)
	case *sema.Cast:
		return r.evalCastVec(b, x)
	case *sema.Like:
		cb := r.charLeaf(b, x.E)
		out := r.mapVec(b, "val_like", uint64(cb.addr), uint64(cb.width), uint64(cb.start),
			uint64(r.intern(x.Pattern)), uint64(len(x.Pattern)))
		if x.Not {
			out = r.mapVec(b, "map_not", uint64(out.addr))
		}
		return out
	case *sema.Case:
		// Compute the else arm, then blend arms from last to first.
		acc := r.evalVec(b, x.Else)
		for i := len(x.Whens) - 1; i >= 0; i-- {
			cond := r.evalVec(b, x.Whens[i].Cond)
			then := r.evalVec(b, x.Whens[i].Then)
			acc = r.mapVec(b, "map_blend", uint64(cond.addr), uint64(then.addr), uint64(acc.addr))
		}
		return acc
	case *sema.ExtractYear:
		return r.mapOf(b, "map_year", x.E)
	}
	fail("vectorized: unsupported expression %T", e)
	return vec{}
}

func (r *Runner) evalBinaryVec(b *batch, x *sema.Binary) vec {
	// CHAR comparisons in value position: equality with a constant only.
	if x.Op.IsComparison() && x.L.Type().Kind == types.Char {
		c, ok := x.R.(*sema.Const)
		if !ok || (x.Op != sema.OpEq && x.Op != sema.OpNe) {
			fail("vectorized: CHAR comparison %s is supported only as a predicate", x)
		}
		cb := r.charLeaf(b, x.L)
		out := r.mapVec(b, "val_eqchar", uint64(cb.addr), uint64(cb.width), uint64(cb.start),
			uint64(r.intern(c.V.S)), uint64(len(c.V.S)))
		if x.Op == sema.OpNe {
			out = r.mapVec(b, "map_not", uint64(out.addr))
		}
		return out
	}

	var name string
	switch {
	case x.Op == sema.OpAnd:
		name = "map_and"
	case x.Op == sema.OpOr:
		name = "map_or"
	case x.Op.IsComparison():
		name = "map_" + cmpName(x.Op) + wordSuffix(x.L.Type())
	default:
		arith := map[sema.OpKind]string{
			sema.OpAdd: "add", sema.OpSub: "sub", sema.OpMul: "mul",
			sema.OpDiv: "div", sema.OpMod: "mod",
		}[x.Op]
		name = "map_" + arith + wordSuffix(x.T)
	}
	var out vec
	if c, ok := x.R.(*sema.Const); ok {
		out = r.mapOf(b, name+"_vi", x.L, constBits(c.V))
	} else {
		l := r.evalVec(b, x.L)
		out = r.mapVec(b, name+"_vv", uint64(l.addr), uint64(r.evalVec(b, x.R).addr))
	}
	// Preserve 32-bit wraparound semantics for INT results.
	if x.T.Kind == types.Int32 && !x.Op.IsComparison() && x.Op != sema.OpAnd && x.Op != sema.OpOr {
		out = r.mapVec(b, "map_wrap32", uint64(out.addr))
	}
	return out
}

// wordSuffix names the slot type of t in kernel names.
func wordSuffix(t types.Type) string {
	if t.Kind == types.Float64 {
		return "_f64"
	}
	return "_i64"
}

func (r *Runner) evalCastVec(b *batch, x *sema.Cast) vec {
	from, to := x.E.Type(), x.To
	isInt := from.Kind == types.Int32 || from.Kind == types.Int64
	switch {
	case from.Kind == to.Kind && (from.Kind != types.Decimal || from.Scale == to.Scale),
		from.Kind == types.Int32 && to.Kind == types.Int64, // vectors are sign-extended already
		from.Kind == types.Date && to.Kind == types.Int32:
		return r.evalVec(b, x.E)
	case from.Kind == types.Int64 && to.Kind == types.Int32:
		return r.mapOf(b, "map_wrap32", x.E)
	case isInt && to.Kind == types.Float64:
		return r.mapOf(b, "map_i64_to_f64", x.E)
	case from.Kind == types.Decimal && to.Kind == types.Float64:
		return r.mapOf(b, "map_scale_to_f64", x.E, math.Float64bits(float64(types.Pow10(from.Scale))))
	case isInt && to.Kind == types.Decimal:
		return r.mapOf(b, "map_mul_i64_vi", x.E, uint64(types.Pow10(to.Scale)))
	case from.Kind == types.Decimal && to.Kind == types.Decimal && to.Scale > from.Scale:
		return r.mapOf(b, "map_mul_i64_vi", x.E, uint64(types.Pow10(to.Scale-from.Scale)))
	}
	fail("vectorized: unsupported cast %s → %s", from, to)
	return vec{}
}

// projectBatch evaluates the output expressions and boxes the selected rows.
func (r *Runner) projectBatch(b *batch, cols []sema.OutputCol) [][]types.Value {
	type outCol struct {
		v   vec
		cb  charBuf
		chr bool
		t   types.Type
	}
	outs := make([]outCol, len(cols))
	for i, oc := range cols {
		if t := oc.Expr.Type(); t.Kind == types.Char {
			outs[i] = outCol{cb: r.charLeaf(b, oc.Expr), chr: true, t: t}
		} else {
			outs[i] = outCol{v: r.evalVec(b, oc.Expr), t: t}
		}
	}
	// Read the selection vector and decode rows.
	selBytes := r.mem.ReadBytes(b.sel, uint32(b.selN*4))
	rows := make([][]types.Value, b.selN)
	for i := 0; i < b.selN; i++ {
		row := int(int32(binary.LittleEndian.Uint32(selBytes[i*4:])))
		vals := make([]types.Value, len(cols))
		for c, oc := range outs {
			if oc.chr {
				addr := oc.cb.addr + uint32((oc.cb.start+row)*oc.cb.width)
				raw := r.mem.ReadBytes(addr, uint32(oc.cb.width))
				end := len(raw)
				for end > 0 && raw[end-1] == ' ' {
					end--
				}
				vals[c] = types.NewChar(string(raw[:end]), oc.t.Length)
				continue
			}
			vals[c] = valueFromBits(r.mem.U64(oc.v.addr+uint32(row)*8), oc.t)
		}
		rows[i] = vals
	}
	return rows
}

func valueFromBits(bits uint64, t types.Type) types.Value {
	switch t.Kind {
	case types.Bool:
		return types.NewBool(bits != 0)
	case types.Int32:
		return types.NewInt32(int32(int64(bits)))
	case types.Date:
		return types.NewDate(int32(int64(bits)))
	case types.Int64:
		return types.NewInt64(int64(bits))
	case types.Decimal:
		return types.NewDecimal(int64(bits), t.Prec, t.Scale)
	case types.Float64:
		return types.NewFloat64(math.Float64frombits(bits))
	}
	return types.Value{Type: t}
}
