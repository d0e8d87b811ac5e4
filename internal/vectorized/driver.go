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

// Stats reports vectorized execution phases.
type Stats struct {
	KernelCalls int
}

// Runner executes one query with the vectorized engine.
type Runner struct {
	q    *sema.Query
	inst *engine.Instance
	mem  *wmem.Memory

	colBase map[[2]int]uint32

	constCursor uint32
	consts      map[string]uint32

	// Fixed scratch areas.
	selA, selB   uint32 // selection vectors
	kwArea       uint32
	newSel       uint32
	outRowSel    uint32
	probeState   uint32
	vecPool      uint32
	vecPoolN     int
	vecNext      int
	ctrlArea     uint32
	ctrlNext     uint32
	charPool     uint32
	charPoolSize uint32
	charNext     uint32

	stats Stats
}

const (
	maxKeyWords = 8
	numVecs     = 64
	charPoolCap = 64 * BatchSize // bytes for packed char scratch buffers
)

// Run executes the plan and returns column names and rows.
func Run(q *sema.Query, root plan.Node) ([]string, [][]types.Value, *Stats, error) {
	mod, err := kernelModule()
	if err != nil {
		return nil, nil, nil, err
	}
	r := &Runner{q: q, colBase: map[[2]int]uint32{}, consts: map[string]uint32{}}

	// Address space: page 0 guard, page 1 constants, then columns, then
	// scratch, then heap.
	cursor := uint32(2 * pageSize)
	used := map[[2]int]bool{}
	collectColumns(q, used)
	for ti := range q.Tables {
		tbl := q.Tables[ti].Table
		for ci := range tbl.Columns {
			if !used[[2]int{ti, ci}] {
				continue
			}
			r.colBase[[2]int{ti, ci}] = cursor
			cursor += uint32(tbl.Columns[ci].MappedBytes())
		}
	}
	scratch := cursor
	alloc := func(n uint32) uint32 {
		p := scratch
		scratch += (n + 7) &^ 7
		return p
	}
	r.selA = alloc(BatchSize * 4)
	r.selB = alloc(BatchSize * 4)
	r.newSel = alloc(BatchSize * 4)
	r.outRowSel = alloc(BatchSize * 4)
	r.probeState = alloc(16)
	r.kwArea = alloc(BatchSize * 8 * maxKeyWords)
	r.ctrlArea = alloc(1024)
	r.ctrlNext = r.ctrlArea
	r.vecPool = alloc(BatchSize * 8 * numVecs)
	r.vecPoolN = numVecs
	r.charPool = alloc(charPoolCap)
	r.charPoolSize = charPoolCap
	r.charNext = r.charPool
	heapBase := (scratch + pageSize - 1) &^ (pageSize - 1)

	minPages := heapBase/pageSize + 16
	mem := wmem.New(minPages, 65536)
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

	inst, err := mod.Instantiate(engine.Imports{Memory: mem})
	if err != nil {
		return nil, nil, nil, err
	}
	r.inst = inst
	r.call("set_heap", uint64(heapBase))

	proj, ok := root.(*plan.Project)
	if !ok {
		return nil, nil, nil, fmt.Errorf("vectorized: root must be a projection")
	}
	var names []string
	for _, oc := range proj.Cols {
		names = append(names, oc.Name)
	}

	var rows [][]types.Value
	limit := int64(-1)
	inner := proj.Input
	if lim, ok := inner.(*plan.Limit); ok {
		limit = lim.N
		inner = lim.Input
	}
	emit := func(b *batch) error {
		out, err := r.projectBatch(b, proj.Cols)
		if err != nil {
			return err
		}
		rows = append(rows, out...)
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

// call invokes a kernel.
func (r *Runner) call(name string, args ...uint64) uint64 {
	r.stats.KernelCalls++
	res, err := r.inst.Call(name, args...)
	if err != nil {
		panic(fmt.Sprintf("vectorized: kernel %s: %v", name, err))
	}
	if len(res) > 0 {
		return res[0]
	}
	return 0
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
	if r.vecNext >= r.vecPoolN {
		panic("vectorized: vector scratch exhausted")
	}
	v := vec{addr: r.vecPool + uint32(r.vecNext)*BatchSize*8}
	r.vecNext++
	return v
}

func (r *Runner) newCharBuf(width int) charBuf {
	need := uint32(width * BatchSize)
	if r.charNext+need > r.charPool+r.charPoolSize {
		panic("vectorized: char scratch exhausted")
	}
	b := charBuf{addr: r.charNext, width: width}
	r.charNext += (need + 7) &^ 7
	return b
}

// resetScratch releases per-batch scratch.
func (r *Runner) resetScratch() {
	r.vecNext = 0
	r.charNext = r.charPool
}

// allocCtrl reserves a control block.
func (r *Runner) allocCtrl() uint32 {
	p := r.ctrlNext
	r.ctrlNext += 32
	return p
}

// guestAlloc allocates heap memory inside the module.
func (r *Runner) guestAlloc(n uint32) uint32 {
	return uint32(r.call("alloc", uint64(n)))
}

// batch is one unit of vectorized processing.
type batch struct {
	n     int    // positional space size
	sel   uint32 // selection vector address
	selN  int
	start int // batchStart for direct column access; -1 for compact batches
	// For compact batches, leaves are materialized:
	vecs  map[string]vec
	chars map[string]charBuf
}

func leafKey(e sema.Expr) string { return e.String() }

// columnRef resolves a leaf to either a direct storage column (scan
// batches) or a materialized vector/char buffer (compact batches).
func (r *Runner) leafVec(b *batch, e sema.Expr) (vec, bool) {
	if b.vecs != nil {
		if v, ok := b.vecs[leafKey(e)]; ok {
			return v, true
		}
	}
	return vec{}, false
}

func (r *Runner) leafChar(b *batch, e sema.Expr) (charBuf, bool) {
	if cr, ok := e.(*sema.ColRef); ok && b.start >= 0 {
		if base, ok := r.colBase[[2]int{cr.Table, cr.Col}]; ok {
			return charBuf{addr: base, width: cr.T.Length, start: b.start}, true
		}
	}
	if b.chars != nil {
		if c, ok := b.chars[leafKey(e)]; ok {
			return c, true
		}
	}
	return charBuf{}, false
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
