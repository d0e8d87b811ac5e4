// Package volcano implements the Volcano iterator baseline: tuple-at-a-time
// pull execution with boxed values and interpreted expressions — the
// execution model class the paper uses PostgreSQL to represent (§8.1). Its
// hash tables and sort are deliberately "pre-compiled library" style:
// type-agnostic keys, comparator callbacks, one virtual call per tuple per
// operator — exactly the costs §4.3 and §5.1 attribute to this design.
package volcano

import (
	"fmt"
	"sort"
	"strings"

	"wasmdb/internal/eval"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/storage"
	"wasmdb/internal/types"
)

// Tuple is one row flowing between iterators.
type Tuple []types.Value

// Schema maps expression leaves to tuple slots. Scan-domain slots are
// (table, col); post-aggregation slots are keys and aggregates.
type Schema struct {
	cols map[[2]int]int
	keys []int
	aggs []int
}

func newSchema() *Schema { return &Schema{cols: map[[2]int]int{}} }

type tupleCtx struct {
	s *Schema
	t Tuple
}

func (c tupleCtx) Col(table, col int) types.Value {
	i, ok := c.s.cols[[2]int{table, col}]
	if !ok {
		panic(fmt.Sprintf("volcano: unbound column #%d.%d", table, col))
	}
	return c.t[i]
}

func (c tupleCtx) Key(i int) types.Value { return c.t[c.s.keys[i]] }
func (c tupleCtx) Agg(i int) types.Value { return c.t[c.s.aggs[i]] }

// Iterator is the Volcano open-next-close interface.
type Iterator interface {
	Open() error
	Next() (Tuple, bool, error)
	Close()
	Schema() *Schema
}

// Run executes a physical plan and returns all output rows.
func Run(q *sema.Query, root plan.Node) ([]string, [][]types.Value, error) {
	proj, ok := root.(*plan.Project)
	if !ok {
		return nil, nil, fmt.Errorf("volcano: root must be a projection")
	}
	it, err := build(q, proj.Input)
	if err != nil {
		return nil, nil, err
	}
	if err := it.Open(); err != nil {
		return nil, nil, err
	}
	defer it.Close()

	var names []string
	for _, oc := range proj.Cols {
		names = append(names, oc.Name)
	}
	var rows [][]types.Value
	sch := it.Schema()
	for {
		tup, ok, err := it.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		ctx := tupleCtx{s: sch, t: tup}
		out := make([]types.Value, len(proj.Cols))
		for i, oc := range proj.Cols {
			out[i] = eval.Eval(oc.Expr, ctx)
		}
		rows = append(rows, out)
	}
	return names, rows, nil
}

func build(q *sema.Query, n plan.Node) (Iterator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return newScan(q, x), nil
	case *plan.HashJoin:
		b, err := build(q, x.Build)
		if err != nil {
			return nil, err
		}
		p, err := build(q, x.Probe)
		if err != nil {
			return nil, err
		}
		return newHashJoin(x, b, p), nil
	case *plan.Group:
		in, err := build(q, x.Input)
		if err != nil {
			return nil, err
		}
		return newGroup(x, in), nil
	case *plan.Sort:
		in, err := build(q, x.Input)
		if err != nil {
			return nil, err
		}
		return newSort(x, in), nil
	case *plan.Limit:
		in, err := build(q, x.Input)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, n: x.N}, nil
	case *plan.Project:
		return build(q, x.Input)
	}
	return nil, fmt.Errorf("volcano: unsupported node %T", n)
}

// ---------------------------------------------------------------------------
// Scan with filter.

type scanIter struct {
	tbl    *storage.Table
	ti     int
	filter []sema.Expr
	sch    *Schema
	cols   []*storage.Column
	slots  [][2]int
	row    int
}

func newScan(q *sema.Query, s *plan.Scan) *scanIter {
	it := &scanIter{tbl: s.Table, ti: s.TableIdx, filter: s.Filter, sch: newSchema()}
	// Materialize only referenced columns into tuples.
	used := map[[2]int]bool{}
	collectQueryColumns(q, used)
	for ci, col := range s.Table.Columns {
		key := [2]int{s.TableIdx, ci}
		if !used[key] {
			continue
		}
		it.sch.cols[key] = len(it.cols)
		it.cols = append(it.cols, col)
		it.slots = append(it.slots, key)
	}
	return it
}

func collectQueryColumns(q *sema.Query, used map[[2]int]bool) {
	for _, e := range q.Conjuncts {
		sema.ColumnsUsed(e, used)
	}
	for _, e := range q.GroupBy {
		sema.ColumnsUsed(e, used)
	}
	for _, a := range q.Aggs {
		if a.Arg != nil {
			sema.ColumnsUsed(a.Arg, used)
		}
	}
	for _, oc := range q.Select {
		sema.ColumnsUsed(oc.Expr, used)
	}
	for _, ok := range q.OrderBy {
		sema.ColumnsUsed(ok.Expr, used)
	}
}

func (s *scanIter) Open() error     { s.row = 0; return nil }
func (s *scanIter) Close()          {}
func (s *scanIter) Schema() *Schema { return s.sch }

func (s *scanIter) Next() (Tuple, bool, error) {
	n := s.tbl.Rows()
	for s.row < n {
		t := make(Tuple, len(s.cols))
		for i, col := range s.cols {
			t[i] = col.ValueAt(s.row)
		}
		s.row++
		ok := true
		ctx := tupleCtx{s: s.sch, t: t}
		for _, f := range s.filter {
			if !eval.Eval(f, ctx).IsTrue() {
				ok = false
				break
			}
		}
		if ok {
			return t, true, nil
		}
	}
	return nil, false, nil
}

// ---------------------------------------------------------------------------
// Hash join: generic string-encoded keys (type-agnostic library design).

type hashJoinIter struct {
	j            *plan.HashJoin
	build, probe Iterator
	sch          *Schema
	table        map[string][]Tuple
	pending      []Tuple
	cur          Tuple
	probeSch     *Schema
	buildWidth   int
}

func newHashJoin(j *plan.HashJoin, b, p Iterator) *hashJoinIter {
	it := &hashJoinIter{j: j, build: b, probe: p, sch: newSchema()}
	// Output schema: probe slots followed by build slots.
	ps, bs := p.Schema(), b.Schema()
	it.probeSch = ps
	for key, slot := range ps.cols {
		it.sch.cols[key] = slot
	}
	n := len(ps.cols)
	it.buildWidth = len(bs.cols)
	for key, slot := range bs.cols {
		it.sch.cols[key] = n + slot
	}
	return it
}

// encodeKey builds a type-agnostic key encoding — the design the paper's
// §4.3 criticizes: every insert and probe pays for boxing and encoding.
// canonFloat folds -0.0 into +0.0 so join encodings agree wherever float
// equality does; group keys keep the raw value (±0 forming two groups is
// the established cross-backend behavior).
func encodeKey(vals []types.Value, canonFloat bool) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.Type.Kind {
		case types.Char:
			sb.WriteString(strings.TrimRight(v.S, " "))
			sb.WriteByte(0)
		case types.Float64:
			f := v.F
			if canonFloat && f == 0 {
				f = 0
			}
			fmt.Fprintf(&sb, "%x;", f)
		case types.Decimal:
			// Normalize scale for cross-side equality.
			fmt.Fprintf(&sb, "%d@%d;", v.I, v.Type.Scale)
		default:
			fmt.Fprintf(&sb, "%d;", v.I)
		}
	}
	return sb.String()
}

func (h *hashJoinIter) Open() error {
	if err := h.build.Open(); err != nil {
		return err
	}
	defer h.build.Close()
	h.table = make(map[string][]Tuple)
	bs := h.build.Schema()
	for {
		t, ok, err := h.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx := tupleCtx{s: bs, t: t}
		keys := make([]types.Value, len(h.j.BuildKeys))
		nan := false
		for i, k := range h.j.BuildKeys {
			keys[i] = eval.Eval(k, ctx)
			if v := keys[i]; v.Type.Kind == types.Float64 && v.F != v.F {
				nan = true
			}
		}
		if nan {
			// A NaN key can never compare equal to a probe key — the entry
			// would be unreachable (and worse, the encoding would make NaN
			// self-join). Skip the row.
			continue
		}
		ek := encodeKey(keys, true)
		h.table[ek] = append(h.table[ek], t)
	}
	return h.probe.Open()
}

func (h *hashJoinIter) Close()          { h.probe.Close() }
func (h *hashJoinIter) Schema() *Schema { return h.sch }

func (h *hashJoinIter) Next() (Tuple, bool, error) {
	for {
		if len(h.pending) > 0 {
			b := h.pending[0]
			h.pending = h.pending[1:]
			out := make(Tuple, len(h.cur)+h.buildWidth)
			copy(out, h.cur)
			copy(out[len(h.cur):], b)
			// Residual predicates over the joined tuple.
			ctx := tupleCtx{s: h.sch, t: out}
			ok := true
			for _, r := range h.j.Residual {
				if !eval.Eval(r, ctx).IsTrue() {
					ok = false
					break
				}
			}
			if ok {
				return out, true, nil
			}
			continue
		}
		t, ok, err := h.probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		ctx := tupleCtx{s: h.probeSch, t: t}
		keys := make([]types.Value, len(h.j.ProbeKeys))
		for i, k := range h.j.ProbeKeys {
			keys[i] = eval.Eval(k, ctx)
		}
		h.cur = t
		h.pending = h.table[encodeKey(keys, true)]
	}
}

// ---------------------------------------------------------------------------
// Grouping & aggregation.

type groupState struct {
	keys []types.Value
	aggs []aggAcc
}

type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	min   types.Value
	max   types.Value
	seen  bool
}

type groupIter struct {
	g   *plan.Group
	in  Iterator
	sch *Schema

	groups []*groupState
	pos    int
}

func newGroup(g *plan.Group, in Iterator) *groupIter {
	it := &groupIter{g: g, in: in, sch: newSchema()}
	for i := range g.Keys {
		it.sch.keys = append(it.sch.keys, i)
	}
	for i := range g.Aggs {
		it.sch.aggs = append(it.sch.aggs, len(g.Keys)+i)
	}
	return it
}

func (g *groupIter) Open() error {
	if err := g.in.Open(); err != nil {
		return err
	}
	defer g.in.Close()
	sch := g.in.Schema()
	index := map[string]*groupState{}
	for {
		t, ok, err := g.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx := tupleCtx{s: sch, t: t}
		keys := make([]types.Value, len(g.g.Keys))
		for i, k := range g.g.Keys {
			keys[i] = eval.Eval(k, ctx)
		}
		ek := encodeKey(keys, false)
		st := index[ek]
		if st == nil {
			st = &groupState{keys: keys, aggs: make([]aggAcc, len(g.g.Aggs))}
			index[ek] = st
			g.groups = append(g.groups, st)
		}
		for i, a := range g.g.Aggs {
			acc := &st.aggs[i]
			switch a.Func {
			case sema.AggCountStar, sema.AggCount:
				acc.count++
			case sema.AggSum:
				v := eval.Eval(a.Arg, ctx)
				if a.T.Kind == types.Float64 {
					acc.sumF += v.F
				} else {
					acc.sumI += v.I
				}
			case sema.AggMin, sema.AggMax:
				v := eval.Eval(a.Arg, ctx)
				if !acc.seen {
					acc.min, acc.max, acc.seen = v, v, true
					break
				}
				if types.Compare(v, acc.min) < 0 {
					acc.min = v
				}
				if types.Compare(v, acc.max) > 0 {
					acc.max = v
				}
			}
		}
	}
	// A global aggregation over zero rows yields one all-zero group.
	if len(g.g.Keys) == 0 && len(g.groups) == 0 {
		g.groups = append(g.groups, &groupState{aggs: make([]aggAcc, len(g.g.Aggs))})
	}
	g.pos = 0
	return nil
}

func (g *groupIter) Close()          {}
func (g *groupIter) Schema() *Schema { return g.sch }

func (g *groupIter) Next() (Tuple, bool, error) {
	for {
		t, ok := g.nextGroup()
		if !ok {
			return nil, false, nil
		}
		// HAVING: the post-aggregation filter sees the group's output tuple
		// (KeyRef/AggRef bind through the group schema). The fabricated
		// zero group of a keyless aggregation is filtered like any other —
		// matching the compiled engine, which evaluates HAVING in the
		// run-once output pipeline.
		qualifies := true
		ctx := tupleCtx{s: g.sch, t: t}
		for _, h := range g.g.Having {
			if !eval.Eval(h, ctx).IsTrue() {
				qualifies = false
				break
			}
		}
		if qualifies {
			return t, true, nil
		}
	}
}

func (g *groupIter) nextGroup() (Tuple, bool) {
	if g.pos >= len(g.groups) {
		return nil, false
	}
	st := g.groups[g.pos]
	g.pos++
	t := make(Tuple, len(g.g.Keys)+len(g.g.Aggs))
	copy(t, st.keys)
	for i, a := range g.g.Aggs {
		acc := st.aggs[i]
		switch a.Func {
		case sema.AggCountStar, sema.AggCount:
			t[len(g.g.Keys)+i] = types.NewInt64(acc.count)
		case sema.AggSum:
			switch a.T.Kind {
			case types.Float64:
				t[len(g.g.Keys)+i] = types.NewFloat64(acc.sumF)
			case types.Decimal:
				t[len(g.g.Keys)+i] = types.NewDecimal(acc.sumI, a.T.Prec, a.T.Scale)
			default:
				t[len(g.g.Keys)+i] = types.NewInt64(acc.sumI)
			}
		case sema.AggMin, sema.AggMax:
			// Over no rows MIN and MAX are the zero value of their type, as
			// in the compiled engine's zero-initialised state (there is no
			// NULL in this dialect).
			v := types.Value{Type: a.T}
			if acc.seen && a.Func == sema.AggMin {
				v = acc.min
			} else if acc.seen {
				v = acc.max
			}
			t[len(g.g.Keys)+i] = v
		}
	}
	return t, true
}

// ---------------------------------------------------------------------------
// Sort: comparator-callback sort over boxed tuples (qsort-style, §5).

type sortIter struct {
	s   *plan.Sort
	in  Iterator
	sch *Schema

	rows []Tuple
	pos  int
}

func newSort(s *plan.Sort, in Iterator) *sortIter {
	return &sortIter{s: s, in: in, sch: in.Schema()}
}

func (s *sortIter) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	defer s.in.Close()
	for {
		t, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, t)
	}
	keys := s.s.Keys
	sch := s.sch
	// The comparator callback: one closure invocation (and key
	// re-evaluation) per comparison — the Θ(n log n) callback cost of
	// library sorting the paper highlights.
	sort.SliceStable(s.rows, func(i, j int) bool {
		ci := tupleCtx{s: sch, t: s.rows[i]}
		cj := tupleCtx{s: sch, t: s.rows[j]}
		for _, k := range keys {
			vi := eval.Eval(k.Expr, ci)
			vj := eval.Eval(k.Expr, cj)
			c := types.Compare(vi, vj)
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	s.pos = 0
	return nil
}

func (s *sortIter) Close()          {}
func (s *sortIter) Schema() *Schema { return s.sch }

func (s *sortIter) Next() (Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

// ---------------------------------------------------------------------------
// Limit.

type limitIter struct {
	in   Iterator
	n    int64
	seen int64
}

func (l *limitIter) Open() error     { l.seen = 0; return l.in.Open() }
func (l *limitIter) Close()          { l.in.Close() }
func (l *limitIter) Schema() *Schema { return l.in.Schema() }

func (l *limitIter) Next() (Tuple, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	t, ok, err := l.in.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	l.seen++
	return t, true, nil
}
