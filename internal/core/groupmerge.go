package core

import (
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/wasm"
)

// Exports of the group table's fold barrier. Every worker builds a private
// group hash table during the parallel scan; these three ad-hoc exports let
// the host move the secondaries' entries into the primary worker, whose own
// generated code folds them into its table, and whose output pipeline then
// runs unchanged. Like the rest of the module they are monomorphized against
// the QEP's types — the merge loop is the same inlined probe/claim/combine
// code shape as the feeding pipeline, except that colliding aggregates fold
// partial states instead of rows. Serial execution never calls them.

const (
	groupDumpExport  = "q_groups_dump"
	groupRecvExport  = "q_merge_recv"
	groupMergeExport = "q_group_merge"
)

// genGroupMerge emits the dump/recv/merge exports for the group hash table
// and returns what the executor needs to run the fold barrier with them.
func (c *compiler) genGroupMerge(gr *plan.Group, ht *htInfo, aggSlots []*sema.AggRef) *FoldMerge {
	c.genDumpFunc(groupDumpExport, ht)
	gRecv := c.b.AddGlobal(wasm.I32, true, 0)
	c.genRecvFunc(groupRecvExport, ht.layout.stride, gRecv)
	c.genGroupMergeFunc(gr, ht, aggSlots, gRecv)
	return &FoldMerge{
		MergeExport: groupMergeExport,
		DumpExport:  groupDumpExport,
		RecvExport:  groupRecvExport,
		CountGlobal: ht.gCount,
		Stride:      ht.layout.stride,
	}
}

// genDumpFunc emits <name>() -> i32: compact the occupied entries of the
// hash table into a fresh allocation (flag word included, so each record is
// a verbatim entry image) and return its base. The record count is the live
// gCount, read host-side.
func (c *compiler) genDumpFunc(name string, ht *htInfo) {
	f := c.b.NewFunc(name, wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	stride := int32(ht.layout.stride)

	base := f.AddLocal(wasm.I32)
	out := f.AddLocal(wasm.I32)
	cap := f.AddLocal(wasm.I32)
	i := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)

	f.GlobalGet(ht.gCount)
	f.I32Const(stride)
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.LocalTee(base)
	f.LocalSet(out)
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(cap)

	// for i in 0..cap: if occupied, copy entry to out, out += stride
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(cap)
	f.I32GeU()
	f.BrIf(1)
	f.GlobalGet(ht.gBase)
	f.LocalGet(i)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(entry)
	f.LocalGet(entry)
	f.Emit(wasm.OpI32Load, 0, 2) // occupancy flag
	f.If(wasm.BlockVoid)
	emitWordCopy(f, w, out, entry, func() { f.I32Const(stride) })
	f.LocalAddI32(out, stride)
	f.End()
	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(base)
}

// genRecvFunc emits <name>(n) -> i32: allocate room for n records of size
// bytes, point the global g at them (the merge reads it), and return the
// address the host writes the records to.
func (c *compiler) genRecvFunc(name string, size, g uint32) *wasm.FuncBuilder {
	f := c.b.NewFunc(name, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	f.LocalGet(f.Param(0))
	f.I32Const(int32(size))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.GlobalSet(g)
	f.GlobalGet(g)
	return f
}

// genGroupMergeFunc emits q_group_merge(begin, end) -> i32: fold received
// records [begin, end) into this worker's group table through the feeding
// pipeline's own upsert loop — an empty slot is claimed with a verbatim record
// copy, colliding partial states are combined. The morsel-shaped signature
// lets the executor drive it through the same callMorsel path as pipelines
// (tracing and fault injection apply).
func (c *compiler) genGroupMergeFunc(gr *plan.Group, ht *htInfo, aggSlots []*sema.AggRef, gRecv uint32) {
	f := c.b.NewFunc(groupMergeExport, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(groupMergeExport, wasm.ExternFunc, f.Index)
	g := &gen{c: c, f: f}
	stride := int32(ht.layout.stride)

	i := f.AddLocal(wasm.I32)
	rec := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)

	f.LocalGet(f.Param(0))
	f.LocalSet(i)

	f.Block(wasm.BlockVoid) // all records done
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	f.GlobalGet(gRecv)
	f.LocalGet(i)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(rec)

	// Key sources read from the record, which mirrors the entry layout.
	keys := g.fieldKeys(rec, &ht.layout, gr.Keys)
	idx := g.emitSlotIndex(ht, g.emitHash(keys, nil, false))
	g.emitUpsert(ht, keys, idx, entry, func() {
		// The record is a full entry image (flag, keys, partial states), so a
		// verbatim copy installs the group.
		emitWordCopy(f, f.AddLocal(wasm.I32), entry, rec, func() { f.I32Const(stride) })
	}, func() {
		for ai, a := range gr.Aggs {
			fld, _ := ht.layout.find(aggSlots[ai])
			af := fld
			g.emitAggFold(a.Func, g.fieldAgg(entry, af), foldVal{push: func() { g.loadField(rec, af) }, partial: true})
		}
	})

	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	c.noteErr(g)
}

// emitWordCopy copies n bytes (a multiple of 8, pushed by pushN on every
// iteration: a constant or a local) from src to dst with an i64 word loop
// counted in the local w.
func emitWordCopy(f *wasm.FuncBuilder, w, dst, src wasm.Local, pushN func()) {
	f.I32Const(0)
	f.LocalSet(w)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(w)
	pushN()
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(dst)
	f.LocalGet(w)
	f.I32Add()
	f.LocalGet(src)
	f.LocalGet(w)
	f.I32Add()
	f.I64Load(0)
	f.I64Store(0)
	f.LocalAddI32(w, 8)
	f.Br(0)
	f.End()
	f.End()
}
