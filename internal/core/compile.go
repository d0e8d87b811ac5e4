package core

import (
	"fmt"
	"sync"

	"wasmdb/internal/faultpoint"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// PipelineKind tells the executor how to drive a pipeline.
type PipelineKind int

// Pipeline kinds.
const (
	// PipeScanTable iterates rows [begin, end) of a base table; the host
	// drives morsels over the table's row count.
	PipeScanTable PipelineKind = iota
	// PipeScanSlots iterates hash-table slots [begin, end); the host reads
	// the slot count from CountGlobal after the feeding pipeline ran.
	PipeScanSlots
	// PipeScanArray iterates sort-array elements [begin, end).
	PipeScanArray
	// PipeRunOnce is invoked a single time with (0, 0) — e.g. the quicksort
	// call.
	PipeRunOnce
	// PipeScanBuckets iterates the buckets of a chained library hash table
	// (Style.LibraryHT); CountGlobal holds the guest address of the table's
	// control block, whose mask determines the bucket count.
	PipeScanBuckets
)

// PipelineInfo describes one exported pipeline function.
type PipelineInfo struct {
	Export string
	Kind   PipelineKind
	// TableIdx identifies the scanned table for PipeScanTable.
	TableIdx int
	// CountGlobal is the module global holding the iteration bound for
	// PipeScanSlots (capacity) and PipeScanArray (element count).
	CountGlobal uint32
}

// ColumnMapping records where a referenced column must be rewired.
type ColumnMapping struct {
	TableIdx, ColIdx int
	Base             uint32
}

// ResultField describes one column of the result row layout.
type ResultField struct {
	Name   string
	Type   types.Type
	Offset uint32
}

// Barrier is one synchronization point of the query, declared by the code
// generator where it emitted the operator that needs it: once the pipeline at
// index Pipeline has been driven, the state it left on each worker is turned
// into the state the following pipelines read. Exactly one of Join, Fold and
// Sort is set. The executor runs the barriers of a pipeline in the order they
// are listed, with a pool of one as with many; it never works out from the
// pipelines what state they hold.
type Barrier struct {
	Pipeline int
	// Join: every worker builds a directory over all workers' tuple chunks.
	Join *JoinMerge
	// Fold: the secondaries' partial aggregation state is folded into the
	// primary, which runs every later pipeline.
	Fold *FoldMerge
	// Sort: Pipeline is the sort call every worker runs on its own tuple
	// array; the module's merge export combines the runs on the primary.
	Sort *SortMerge
}

// FoldMerge describes a fold barrier. The fold rule itself — which aggregate
// adds, which compares, when two keys are equal — exists only in the module:
// MergeExport folds partial state into the instance it is called on, and the
// host moves that state between workers without interpreting it.
type FoldMerge struct {
	// MergeExport, when Globals is set (keyless aggregation), takes the
	// values another worker's Globals hold, in order, as its arguments.
	// Otherwise (a group table) it is morsel-shaped over records
	// [begin, end) of the buffer RecvExport allocated.
	MergeExport string
	Globals     []uint32
	// DumpExport compacts the occupied entries of the worker's group table
	// into a fresh allocation of verbatim entry images, Stride bytes each,
	// and returns its address; CountGlobal holds their number. RecvExport(n)
	// allocates room for n records and returns where to write them.
	DumpExport  string
	RecvExport  string
	CountGlobal uint32
	Stride      uint32
}

// JoinMerge describes the build barrier of one ad-hoc hash-join table. The
// build pipeline leaves each worker with a private list of tuple chunks; at
// the barrier the executor walks every list, calls ReserveExport on each
// worker with the exact tuple total, aliases the other workers' chunks into
// the region it returns (page-table writes, no copy), and drives FinishExport
// once per chunk so every worker places all tuples in its own directory.
// Serial execution runs the same barrier with one worker and nothing to
// alias.
type JoinMerge struct {
	// ReserveExport(total, foreignPages) allocates the directory for total
	// tuples plus a page-aligned region of foreignPages pages, and returns
	// the region's address.
	ReserveExport string
	// FinishExport(addr, n) places the n tuples starting at addr in the
	// directory; morsel-shaped, driven through callMorsel.
	FinishExport string
	// HeadGlobal holds the address of the worker's newest chunk (0 for none;
	// a chunk's first word links to the one before it), PosGlobal the append
	// cursor inside it, MaskGlobal the directory's slot mask after reserve.
	// AlignGlobal holds the alignment of tuple chunks: the executor raises it
	// to a page before q_init when a worker pool runs the query, so chunks
	// can be rewired between workers.
	HeadGlobal  uint32
	PosGlobal   uint32
	MaskGlobal  uint32
	AlignGlobal uint32
	// Stride is the tuple size in bytes, hash word included; ChunkCap the
	// number of tuples every chunk but the newest holds; ChunkPages a chunk's
	// size in pages.
	Stride     uint32
	ChunkCap   uint32
	ChunkPages uint32
}

// SortMerge describes the sorted-run barrier: every worker quicksorts its
// private tuple array, and the host gathers the runs onto the primary worker
// (RecvExport) and merges adjacent pairs with MergeExport until one run — the
// primary's sort array (BaseGlobal/CountGlobal) — remains, which the output
// pipeline scans unchanged. The host moves tuples and compares none.
type SortMerge struct {
	// RecvExport(n) allocates room for 2n tuples on the primary worker,
	// points the sort array globals at the first n, and returns its base.
	RecvExport string
	// MergeExport(a, b, end, out) merges the sorted runs at [a, b) and
	// [b, end) into out, the left run's tuple first on ties.
	MergeExport string
	// BaseGlobal / CountGlobal are the sort array's base-address and
	// tuple-count module globals (read per worker to locate each run).
	BaseGlobal  uint32
	CountGlobal uint32
	// Stride is the tuple size in bytes.
	Stride uint32
}

// CompiledQuery is the output of Compile: a binary Wasm module plus the
// metadata the executor needs to wire memory and drive pipelines. Bin is the
// only form of the module it keeps: the builder that produced it is pooled,
// and its Module is invalid once the builder is Reset for the next compile,
// so WAT and every other reader decode Bin.
type CompiledQuery struct {
	Bin       []byte
	Pipelines []PipelineInfo
	Columns   []ColumnMapping

	ResultBase   uint32
	ResultStride uint32
	ResultFields []ResultField
	// CursorGlobal holds the number of rows currently in the result buffer.
	CursorGlobal uint32

	// HeapBase is where the bump allocator starts.
	HeapBase uint32
	// MinPages is the initial memory size the executor must provide.
	MinPages uint32

	// Barriers lists the query's synchronization points in the order they
	// run (ascending Pipeline). SerialReason, when non-empty, is the reason a
	// worker pool can never run this module — a property of the generated
	// code, known when it was generated: float-sum-order, or
	// unmergeable-pipeline-state for state a table scan fills that no barrier
	// combines.
	Barriers     []Barrier
	SerialReason string

	Limit int64 // -1 if none

	// ParamSlots lists the parameter-region slots the generated code reads,
	// ordered by parameter ordinal. The executor writes the execution's
	// parameter values into these slots (in every worker's memory) before
	// calling q_init. Empty for fully constant-baked queries.
	ParamSlots []ParamSlot
	// LimitSlot is the parameter ordinal the generated LIMIT check reads,
	// or -1 when the limit (if any) is baked as a constant. When ≥ 0 the
	// executor takes the effective limit from the parameter vector rather
	// than from Limit.
	LimitSlot int

	// Uncacheable marks a module whose generated code was perturbed by an
	// armed fault-injection point: it is not a pure function of the plan
	// fingerprint, so the plan cache must not retain it.
	Uncacheable bool
}

// ParamSlot is one parameter's home in the parameter region.
type ParamSlot struct {
	// Idx is the parameter ordinal in the execution parameter vector.
	Idx int
	// Off is the byte offset from paramBase.
	Off uint32
	// T is the slot's type: numeric slots hold the value's machine
	// representation; CHAR slots hold T.Length raw bytes.
	T types.Type
}

// Compile translates a physical plan (with its bound query) to WebAssembly
// in the paper's style: ad-hoc specialized library code, fully inlined.
func Compile(q *sema.Query, root plan.Node) (*CompiledQuery, error) {
	return CompileStyled(q, root, Style{})
}

// Style selects between the paper's ad-hoc specialization and the
// "pre-compiled library" designs it argues against (§4.3, §5.1). The
// HyPer-like baseline enables all three flags; the ablation benchmarks
// flip them individually.
type Style struct {
	// LibraryHT replaces inlined monomorphic hash tables with generic,
	// type-agnostic library routines: chained buckets, stored hashes, and a
	// key comparison invoked through call_indirect per candidate —
	// Listing 3's design, one function call per access.
	LibraryHT bool
	// LibrarySort replaces the specialized generated quicksort with a
	// generic qsort taking a comparator function pointer and moving
	// elements with a generic byte copy.
	LibrarySort bool
	// PredicatedSelection compiles selections feeding global aggregation
	// branch-free (masked updates) instead of as conditional branches —
	// the behavior the paper attributes to HyPer in Fig. 6.
	PredicatedSelection bool
}

// builders holds the module builders of finished compiles: a compile takes
// one, and puts it back Reset once Encode has written Bin, so bodies, locals
// and tables go into buffers earlier compiles grew.
var builders = sync.Pool{New: func() any { return wasm.NewModuleBuilder() }}

// CompileStyled compiles with explicit style flags.
func CompileStyled(q *sema.Query, root plan.Node, style Style) (*CompiledQuery, error) {
	b := builders.Get().(*wasm.ModuleBuilder)
	defer func() {
		b.Reset()
		builders.Put(b)
	}()
	return compileWith(q, root, style, b)
}

// compileWith compiles into the empty builder b.
func compileWith(q *sema.Query, root plan.Node, style Style, b *wasm.ModuleBuilder) (*CompiledQuery, error) {
	c := &compiler{
		q:     q,
		style: style,
		out:   &CompiledQuery{Limit: q.Limit, LimitSlot: -1},
		b:     b,

		constStrings: map[string]uint32{},
		strcmps:      map[[2]int]*wasm.FuncBuilder{},
		likes:        map[string]*wasm.FuncBuilder{},
		paramSlots:   map[int]ParamSlot{},
	}
	if err := c.compile(root); err != nil {
		return nil, err
	}
	return c.out, nil
}

type compiler struct {
	q     *sema.Query
	style Style
	out   *CompiledQuery
	b     *wasm.ModuleBuilder

	// Library-style shared routines (generated when the style asks for
	// them) and the comparator function table.
	lib        *libRoutines
	tableFuncs []uint32

	// Imports.
	fnResultFlush uint32

	// Shared generated helpers, created on demand.
	fnAlloc        *wasm.FuncBuilder
	fnAllocAligned *wasm.FuncBuilder
	gChunkAlign    uint32 // alignment of alloc_aligned, valid once it exists
	fnExtractYear  *wasm.FuncBuilder
	strcmps        map[[2]int]*wasm.FuncBuilder
	likes          map[string]*wasm.FuncBuilder

	// Globals.
	gHeap      uint32 // bump-allocator cursor
	gCursor    uint32 // rows in result buffer
	gTotalRows uint32 // total result rows produced (for LIMIT)

	// Constant region.
	constStrings map[string]uint32
	constCursor  uint32
	constData    []byte

	// Parameter region slots, by parameter ordinal.
	paramSlots map[int]ParamSlot

	// Column addresses.
	colBase map[[2]int]uint32

	// Pipelines generated so far.
	pipes []*wasm.FuncBuilder

	// initSteps are emitted into the exported q_init function.
	initSteps []func(g *gen)

	// err records the first failure raised from deep inside expression
	// emitters (which have no error return path); compile checks it before
	// validating the module.
	err error

	// Per-query result layout.
	resultLayout tupleLayout
}

func (c *compiler) compile(root plan.Node) error {
	// --- Parameter region layout -----------------------------------------
	if err := c.layoutParams(); err != nil {
		return err
	}

	// --- Address space layout -------------------------------------------
	c.colBase = map[[2]int]uint32{}
	cursor := uint32(columnsBase)
	used := map[[2]int]bool{}
	c.collectColumns(used)
	// Deterministic order: by table then column index.
	for ti := range c.q.Tables {
		tbl := c.q.Tables[ti].Table
		for ci := range tbl.Columns {
			if !used[[2]int{ti, ci}] {
				continue
			}
			c.colBase[[2]int{ti, ci}] = cursor
			c.out.Columns = append(c.out.Columns, ColumnMapping{TableIdx: ti, ColIdx: ci, Base: cursor})
			cursor += uint32(pageCeilU(uint64(tbl.Columns[ci].MappedBytes())))
			if cursor >= 1<<31 {
				return fmt.Errorf("core: referenced columns exceed the 2 GiB column window; table too large for a single mapping")
			}
		}
	}

	// Result buffer.
	var outExprs []sema.Expr
	for _, oc := range c.q.Select {
		outExprs = append(outExprs, oc.Expr)
	}
	c.resultLayout = buildLayout(outExprs, 0)
	c.out.ResultBase = cursor
	c.out.ResultStride = c.resultLayout.stride
	for i, oc := range c.q.Select {
		f, _ := c.resultLayout.find(oc.Expr)
		// Note: duplicate output expressions share a field; record per item.
		_ = i
		c.out.ResultFields = append(c.out.ResultFields, ResultField{Name: oc.Name, Type: oc.Expr.Type(), Offset: f.offset})
	}
	resBytes := pageCeilU(uint64(c.resultLayout.stride) * resultCapacityRows)
	heapBase := cursor + uint32(resBytes)
	c.out.HeapBase = heapBase
	c.out.MinPages = heapBase/pageSize + 16

	// --- Module skeleton -------------------------------------------------
	c.b.ImportMemory("env", "memory", c.out.MinPages, 65536)
	c.fnResultFlush = c.b.ImportFunc("env", "result_flush",
		wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})

	c.gHeap = c.b.AddGlobal(wasm.I32, true, uint64(heapBase))
	c.gCursor = c.b.AddGlobal(wasm.I32, true, 0)
	c.gTotalRows = c.b.AddGlobal(wasm.I32, true, 0)
	c.out.CursorGlobal = c.gCursor

	// --- Plan walk --------------------------------------------------------
	proj, ok := root.(*plan.Project)
	if !ok {
		return fmt.Errorf("core: plan root must be a projection")
	}
	if err := c.produce(proj.Input, c.resultConsumer(proj)); err != nil {
		return err
	}

	// --- init function ----------------------------------------------------
	fi := c.b.NewFunc("q_init", wasm.FuncType{})
	gi := &gen{c: c, f: fi}
	for _, step := range c.initSteps {
		step(gi)
	}
	c.b.Export("q_init", wasm.ExternFunc, fi.Index)

	// Constant region data.
	if len(c.constData) > 0 {
		c.b.AddData(constBase, c.constData)
	}

	if c.err != nil {
		return c.err
	}

	mod := c.b.Module()
	if len(c.tableFuncs) > 0 {
		mod.HasTable = true
		mod.TableMin = uint32(len(c.tableFuncs))
		mod.Elems = append(mod.Elems, wasm.ElemSegment{Offset: 0, Funcs: c.tableFuncs})
	}
	// The engine validates every module before it compiles one
	// (engine.Compile); TestModuleGolden validates the corpus at codegen.
	c.out.Bin = wasm.Encode(mod)
	return nil
}

func pageCeilU(n uint64) uint64 { return (n + pageSize - 1) &^ (pageSize - 1) }

// collectColumns marks every (table, column) pair the query references.
func (c *compiler) collectColumns(used map[[2]int]bool) {
	for _, e := range c.q.Conjuncts {
		sema.ColumnsUsed(e, used)
	}
	for _, e := range c.q.GroupBy {
		sema.ColumnsUsed(e, used)
	}
	for _, a := range c.q.Aggs {
		if a.Arg != nil {
			sema.ColumnsUsed(a.Arg, used)
		}
	}
	for _, oc := range c.q.Select {
		sema.ColumnsUsed(oc.Expr, used)
	}
	for _, ok := range c.q.OrderBy {
		sema.ColumnsUsed(ok.Expr, used)
	}
}

// newPipeline opens a new exported pipeline function and registers it.
func (c *compiler) newPipeline(kind PipelineKind, tableIdx int, countGlobal uint32) *gen {
	name := fmt.Sprintf("pipeline_%d", len(c.pipes))
	f := c.b.NewFunc(name, wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.pipes = append(c.pipes, f)
	c.b.Export(name, wasm.ExternFunc, f.Index)
	c.out.Pipelines = append(c.out.Pipelines, PipelineInfo{
		Export: name, Kind: kind, TableIdx: tableIdx, CountGlobal: countGlobal,
	})
	if faultpoint.Hit("core-infinite-loop") != nil {
		// Fault injection: open the pipeline with a spin loop, turning it
		// into a well-typed runaway query (the rest of the body becomes dead
		// code). Tests use this to prove fuel budgets and cancellation stop
		// generated code the host otherwise cannot interrupt.
		f.Loop(wasm.BlockVoid)
		f.Br(0)
		f.End()
		c.out.Uncacheable = true
	}
	return &gen{c: c, f: f}
}

// addBarrier declares b on the pipeline emitted last.
func (c *compiler) addBarrier(b Barrier) {
	b.Pipeline = len(c.out.Pipelines) - 1
	c.out.Barriers = append(c.out.Barriers, b)
}

// serialOnly records that no barrier combines the state the pipeline emitted
// last has just filled. That only matters for a table scan: a pool spreads
// nothing else (every other pipeline runs on the primary, over state the
// barriers left there). The first reason recorded stands.
func (c *compiler) serialOnly(reason string) {
	if c.out.SerialReason == "" && c.out.Pipelines[len(c.out.Pipelines)-1].Kind == PipeScanTable {
		c.out.SerialReason = reason
	}
}

// noteErr keeps the first failure of a generator that has no pipeline to
// return it through.
func (c *compiler) noteErr(g *gen) {
	if c.err == nil {
		c.err = g.err
	}
}

// consumer emits the code that consumes one tuple in the current pipeline;
// the environment provides the tuple's attribute bindings.
type consumer func(g *gen, e *env)

// filterConsumer gates a consumer behind a conjunction: the tuple reaches
// consume only when every conjunct holds. The whole conjunction is evaluated
// and decided by one conditional branch (no short-circuiting — §8.2's
// analysis of Fig. 6c depends on this).
func filterConsumer(conjuncts []sema.Expr, consume consumer) consumer {
	if len(conjuncts) == 0 {
		return consume
	}
	return func(g *gen, e *env) {
		if g.err != nil || g.conjunction(e, conjuncts) != nil {
			return
		}
		g.f.If(wasm.BlockVoid)
		consume(g, e)
		g.f.End()
	}
}

// produce compiles the subplan rooted at n, feeding each produced tuple to
// consume (data-centric compilation, §4.2).
func (c *compiler) produce(n plan.Node, consume consumer) error {
	switch x := n.(type) {
	case *plan.Scan:
		return c.produceScan(x, consume)
	case *plan.HashJoin:
		return c.produceJoin(x, consume)
	case *plan.Group:
		// HAVING wraps the consumer once, centrally: every group output path
		// (ad-hoc slot scan, library bucket walk, keyless run-once) binds
		// KeyRef/AggRef in its env, so the compiled conjunction gates emission
		// uniformly across styles.
		consume = filterConsumer(x.Having, consume)
		if len(x.Keys) == 0 {
			// Keyless aggregation never needs a hash table.
			if c.style.PredicatedSelection {
				if scan, ok := x.Input.(*plan.Scan); ok {
					return c.producePredicatedGlobalAgg(x, scan, consume)
				}
			}
			return c.produceGlobalAgg(x, consume)
		}
		return c.produceGroup(x, consume)
	case *plan.Sort:
		return c.produceSort(x, consume)
	case *plan.Limit:
		// LIMIT is enforced in the result consumer via gTotalRows.
		return c.produce(x.Input, consume)
	case *plan.Project:
		return c.produce(x.Input, consume)
	}
	return fmt.Errorf("core: unsupported plan node %T", n)
}

// rangePipeline opens a new pipeline whose body runs for every i in the
// morsel [begin, end) the host calls it with — table rows, hash-table slots or
// buckets, sort-array elements.
func (c *compiler) rangePipeline(kind PipelineKind, tableIdx int, countGlobal uint32, body func(g *gen, i wasm.Local)) error {
	g := c.newPipeline(kind, tableIdx, countGlobal)
	f := g.f
	i := f.AddLocal(wasm.I32)
	f.LocalGet(f.Param(0))
	f.LocalSet(i)
	f.Block(wasm.BlockVoid) // exit
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	body(g, i)
	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	return g.err
}

// produceScan generates the morsel-driven table-scan pipeline.
func (c *compiler) produceScan(s *plan.Scan, consume consumer) error {
	consume = filterConsumer(s.Filter, consume)
	return c.rangePipeline(PipeScanTable, s.TableIdx, 0, func(g *gen, row wasm.Local) {
		e := &env{}
		c.bindTableColumns(g, e, s.TableIdx, row)
		consume(g, e)
	})
}

// bindTableColumns adds bindings for all referenced columns of a table,
// loading from the rewired column arrays by row index.
func (c *compiler) bindTableColumns(g *gen, e *env, tableIdx int, row wasm.Local) {
	tbl := c.q.Tables[tableIdx].Table
	for ci, col := range tbl.Columns {
		base, ok := c.colBase[[2]int{tableIdx, ci}]
		if !ok {
			continue
		}
		col := col
		ref := &sema.ColRef{Table: tableIdx, Col: ci, T: col.Type, Name: col.Name}
		e.add(ref, func() { g.loadColumn(base, col.Type, row) })
	}
}
