package vectorized

import (
	"fmt"

	"wasmdb/internal/engine"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

const pageSize = 64 * 1024

// Stats reports what a vectorized run did: the calls made to each kernel.
type Stats struct {
	Calls map[string]int
}

// Runner executes one query with the vectorized engine.
type Runner struct {
	q    *sema.Query
	inst *engine.Instance
	mem  *wmem.Memory
	used map[[2]int]bool // columns the query references

	colBase map[[2]int]uint32

	constCursor uint32
	consts      map[string]uint32

	// Fixed scratch areas: a scan batch's selection vector, group_locate's
	// new-group list, join_probe's match rows. Each is consumed before the
	// batch that filled it is passed on.
	scanSel, newSel, outRowSel uint32

	// Per-batch scratch, taken stack-wise and released with the batch
	// (resetScratch) or the probe round (release): 8-byte vectors, and
	// chunks that packed CHAR buffers are cut from. Both start as fixed
	// pools and grow from the guest heap when a query needs more; what has
	// grown is kept for the following batches.
	vecs      []uint32
	vecNext   int
	charSpans [][2]uint32 // address, size
	charSpan  int         // the chunk being cut
	charNext  uint32      // bytes of it already taken

	stats Stats
}

const (
	numVecs     = 64
	charPoolCap = 64 * BatchSize // bytes of the fixed CHAR chunk
)

// queryError carries a failure out of the driver's recursion to Run: a
// kernel call that failed, or a plan the engine does not support.
type queryError struct{ err error }

func fail(format string, args ...any) { panic(queryError{fmt.Errorf(format, args...)}) }

// Run executes the plan and returns column names and rows.
func Run(q *sema.Query, root plan.Node) (names []string, rows [][]types.Value, stats *Stats, err error) {
	mod, err := kernelModule()
	if err != nil {
		return nil, nil, nil, err
	}
	r := &Runner{q: q, used: map[[2]int]bool{}, colBase: map[[2]int]uint32{}, consts: map[string]uint32{},
		stats: Stats{Calls: map[string]int{}}}

	// Address space: page 0 guard, page 1 constants, then columns, then
	// scratch, then heap.
	cursor := uint32(2 * pageSize)
	collectColumns(q, r.used)
	for ti := range q.Tables {
		tbl := q.Tables[ti].Table
		for ci := range tbl.Columns {
			if !r.used[[2]int{ti, ci}] {
				continue
			}
			r.colBase[[2]int{ti, ci}] = cursor
			cursor += uint32(tbl.Columns[ci].MappedBytes())
		}
	}
	alloc := func(n uint32) uint32 {
		p := cursor
		cursor += (n + 7) &^ 7
		return p
	}
	r.scanSel = alloc(BatchSize * 4)
	r.newSel = alloc(BatchSize * 4)
	r.outRowSel = alloc(BatchSize * 4)
	for range numVecs {
		r.vecs = append(r.vecs, alloc(BatchSize*8))
	}
	r.charSpans = [][2]uint32{{alloc(charPoolCap), charPoolCap}}
	heapBase := (cursor + pageSize - 1) &^ (pageSize - 1)

	mem := wmem.New(heapBase/pageSize+16, 65536)
	r.mem = mem
	for key, base := range r.colBase {
		col := q.Tables[key[0]].Table.Columns[key[1]]
		if col.MappedBytes() == 0 {
			continue
		}
		// Column bases are page-aligned because each mapped size is a page
		// multiple and the sequence starts page-aligned.
		if err := mem.Map(base, col.Data()); err != nil {
			return nil, nil, nil, fmt.Errorf("vectorized: map column: %w", err)
		}
	}

	if r.inst, err = mod.Instantiate(engine.Imports{Memory: mem}); err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			qe, ok := p.(queryError)
			if !ok {
				panic(p)
			}
			names, rows, stats, err = nil, nil, nil, qe.err
		}
	}()
	r.call("set_heap", uint64(heapBase))

	proj, ok := root.(*plan.Project)
	if !ok {
		return nil, nil, nil, fmt.Errorf("vectorized: root must be a projection")
	}
	for _, oc := range proj.Cols {
		names = append(names, oc.Name)
	}
	limit := int64(-1)
	inner := proj.Input
	if lim, ok := inner.(*plan.Limit); ok {
		limit = lim.N
		inner = lim.Input
	}
	emit := func(b *batch) error {
		rows = append(rows, r.projectBatch(b, proj.Cols)...)
		if limit >= 0 && int64(len(rows)) >= limit {
			rows = rows[:limit]
			return errLimitReached
		}
		return nil
	}
	if err := r.exec(inner, emit); err != nil && err != errLimitReached {
		return nil, nil, nil, err
	}
	return names, rows, &r.stats, nil
}

var errLimitReached = fmt.Errorf("vectorized: limit reached")

func collectColumns(q *sema.Query, used map[[2]int]bool) {
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

// call invokes a kernel. A failed call unwinds to Run, which returns its
// error.
func (r *Runner) call(name string, args ...uint64) uint64 {
	r.stats.Calls[name]++
	res, err := r.inst.Call(name, args...)
	if err != nil {
		panic(queryError{fmt.Errorf("vectorized: kernel %s: %w", name, err)})
	}
	if len(res) > 0 {
		return res[0]
	}
	return 0
}

// callSel invokes a kernel that returns a row count.
func (r *Runner) callSel(name string, args ...uint64) int {
	return int(int32(r.call(name, args...)))
}

// intern places a string constant in the constant region.
func (r *Runner) intern(s string) uint32 {
	if a, ok := r.consts[s]; ok {
		return a
	}
	addr := uint32(pageSize) + r.constCursor
	r.mem.WriteBytes(addr, []byte(s))
	r.constCursor += uint32(len(s))
	r.consts[s] = addr
	return addr
}

// vec handles one positional 8-byte vector in scratch.
type vec struct {
	addr uint32
}

// charBuf is a packed CHAR buffer: width bytes per row starting at addr
// (plus start rows offset when aliasing a column).
type charBuf struct {
	addr  uint32
	width int
	start int
}

func (r *Runner) newVec() vec {
	if r.vecNext == len(r.vecs) {
		r.vecs = append(r.vecs, r.guestAlloc(BatchSize*8))
	}
	r.vecNext++
	return vec{addr: r.vecs[r.vecNext-1]}
}

func (r *Runner) newCharBuf(width int) charBuf {
	need := uint32(width * BatchSize)
	for r.charNext+need > r.charSpans[r.charSpan][1] {
		r.charSpan, r.charNext = r.charSpan+1, 0
		if r.charSpan == len(r.charSpans) {
			size := max(need, charPoolCap)
			r.charSpans = append(r.charSpans, [2]uint32{r.guestAlloc(size), size})
		}
	}
	b := charBuf{addr: r.charSpans[r.charSpan][0] + r.charNext, width: width}
	r.charNext += need
	return b
}

// scratchMark is a point of the scratch stack to release back to.
type scratchMark struct {
	vec, span int
	next      uint32
}

func (r *Runner) mark() scratchMark { return scratchMark{r.vecNext, r.charSpan, r.charNext} }

func (r *Runner) release(m scratchMark) { r.vecNext, r.charSpan, r.charNext = m.vec, m.span, m.next }

// resetScratch releases per-batch scratch.
func (r *Runner) resetScratch() { r.release(scratchMark{}) }

// guestAlloc allocates heap memory inside the module: an operator's own
// vectors, control blocks and tables live there for the whole query.
func (r *Runner) guestAlloc(n uint32) uint32 {
	return uint32(r.call("alloc", uint64(n)))
}

// batch is one unit of vectorized processing.
type batch struct {
	n     int    // positional space size
	sel   uint32 // selection vector address, refined in place
	selN  int
	start int // batchStart for direct column access; -1 for compact batches
	// For compact batches, leaves are materialized:
	vecs  map[string]vec
	chars map[string]charBuf
}

// compactBatch starts a batch of n materialized rows, all selected, with a
// selection vector of its own.
func (r *Runner) compactBatch(n int) *batch {
	sel := r.newVec().addr
	b := &batch{n: n, sel: sel, start: -1, vecs: map[string]vec{}, chars: map[string]charBuf{}}
	b.selN = r.callSel("sel_seq", uint64(sel), 0, uint64(n))
	return b
}

func leafKey(e sema.Expr) string { return e.String() }

// leafVec resolves a leaf materialized in a compact batch.
func (r *Runner) leafVec(b *batch, e sema.Expr) (vec, bool) {
	v, ok := b.vecs[leafKey(e)]
	return v, ok
}

// leafChar resolves a CHAR leaf to its storage column (scan batches) or its
// materialized buffer (compact batches).
func (r *Runner) leafChar(b *batch, e sema.Expr) (charBuf, bool) {
	if cr, ok := e.(*sema.ColRef); ok && b.start >= 0 {
		if base, ok := r.colBase[[2]int{cr.Table, cr.Col}]; ok {
			return charBuf{addr: base, width: cr.T.Length, start: b.start}, true
		}
	}
	c, ok := b.chars[leafKey(e)]
	return c, ok
}

// charLeaf is leafChar for a CHAR value the plan requires.
func (r *Runner) charLeaf(b *batch, e sema.Expr) charBuf {
	cb, ok := r.leafChar(b, e)
	if !ok {
		fail("vectorized: CHAR value %s is not available here", e)
	}
	return cb
}

func elemOf(t types.Type) (int, bool) {
	switch t.Kind {
	case types.Int32, types.Date:
		return elemI32, true
	case types.Int64, types.Decimal:
		return elemI64, true
	case types.Float64:
		return elemF64, true
	case types.Bool:
		return elemU8, true
	}
	return 0, false
}

func roundup8(n int) int { return (n + 7) &^ 7 }
