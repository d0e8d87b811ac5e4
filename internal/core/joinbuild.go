package core

import (
	"fmt"

	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Join build tables are materialized, then built once. The build pipeline
// only appends each qualifying tuple — the entry image of a slot-array table,
// with the 64-bit key hash in the word that would be the occupancy flag — to
// a list of chunks: no probing, no load-factor check, nothing that grows. At
// the build barrier the host knows the exact tuple count, so the generated
// reserve(total, foreignPages) allocates a directory of 4-byte tuple
// addresses with pow2ceil(2·total) slots (zero is empty), and the generated
// finish(addr, n), driven once per chunk, places each tuple's address by
// linear probing on its stored hash. Every tuple is written once and placed
// once, serially and in parallel, by the same code; within a key, matches
// come back in build-scan order.
//
// Under a worker pool the chunks are whole pages (the host sets the chunk
// alignment global before q_init), so the barrier is rewiring: the host
// aliases every other worker's chunks into the region reserve returned, and
// each worker builds its own directory over own plus aliased chunks.

const (
	// joinChunkBytes is the size of a tuple chunk. A tuple wider than a
	// chunk gets chunks of as many pages as one tuple needs.
	joinChunkBytes = pageSize
	// joinChunkHdr is the chunk header: the address of the previous chunk
	// (0 ends the list), padded so tuples stay 8-aligned.
	joinChunkHdr = 8
	// joinHashBit is forced into every stored hash so its low word — the
	// word an occupancy flag occupied — is never zero. Directories stay below
	// 2^31 slots, so the bit never reaches a slot index.
	joinHashBit = 1 << 31
)

// joinTable describes one join build table. The embedded htInfo carries the
// tuple layout and keys; its gBase is the directory and gMask the directory's
// slot mask (gCount and grow are unused).
type joinTable struct {
	htInfo
	// gHead is the newest chunk, gPos the append cursor and gEnd the end of
	// the newest chunk's tuple space. All start at 0: the first append takes
	// the first chunk, an empty build side allocates nothing.
	gHead, gPos, gEnd uint32
	chunkBytes        uint32
	chunkCap          uint32 // tuples per chunk
	// hashCheck makes the probe compare the stored hash before the keys:
	// worth it where the key comparison is more than one integer compare.
	hashCheck bool
	// hashW is the hashed width of each CHAR key, the same on both sides.
	hashW []int
}

func (c *compiler) newJoinTable(name string, fields, keys, probeKeys []sema.Expr) *joinTable {
	jt := &joinTable{
		htInfo: htInfo{
			name:   name,
			layout: buildLayout(dedupExprs(fields), htEntryFlagSize),
			keys:   keys,
			gBase:  c.b.AddGlobal(wasm.I32, true, 0),
			gMask:  c.b.AddGlobal(wasm.I32, true, 0),
		},
		gHead:     c.b.AddGlobal(wasm.I32, true, 0),
		gPos:      c.b.AddGlobal(wasm.I32, true, 0),
		gEnd:      c.b.AddGlobal(wasm.I32, true, 0),
		hashCheck: len(keys) > 1,
		hashW:     hashWidths(keys, probeKeys),
	}
	for _, k := range keys {
		jt.hashCheck = jt.hashCheck || k.Type().Kind == types.Char
	}
	stride := jt.layout.stride
	jt.chunkBytes = uint32(pageCeilU(uint64(max(joinChunkBytes, joinChunkHdr+stride))))
	jt.chunkCap = (jt.chunkBytes - joinChunkHdr) / stride
	return jt
}

// allocAlignedFunc returns alloc_aligned(size): round the heap cursor up to
// the chunk alignment — 8 unless the host raised it to a page for a worker
// pool — and allocate. Chunks and the alias region come from it, so under a
// pool they are page-aligned and can be rewired.
func (c *compiler) allocAlignedFunc() *wasm.FuncBuilder {
	if c.fnAllocAligned != nil {
		return c.fnAllocAligned
	}
	gAlign := c.b.AddGlobal(wasm.I32, true, 8)
	c.gChunkAlign = gAlign
	f := c.b.NewFunc("alloc_aligned", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	c.fnAllocAligned = f
	// heap = (heap + align - 1) & -align
	f.GlobalGet(c.gHeap)
	f.GlobalGet(gAlign)
	f.I32Add()
	f.I32Const(1)
	f.I32Sub()
	f.I32Const(0)
	f.GlobalGet(gAlign)
	f.I32Sub()
	f.I32And()
	f.GlobalSet(c.gHeap)
	f.LocalGet(f.Param(0))
	f.Call(c.allocFunc().Index)
	return f
}

// append appends the current build-side tuple, with its key hash, to the
// chunk list.
func (jt *joinTable) append(g *gen, keys []keySrc, e *env) {
	f := g.f
	stride := jt.layout.stride
	h := g.emitHash(keys, jt.hashW, true)
	tup := f.AddLocal(wasm.I32)
	// Chunk full (or none yet): link a fresh one in front of the list.
	f.GlobalGet(jt.gPos)
	f.GlobalGet(jt.gEnd)
	f.I32Eq()
	f.If(wasm.BlockVoid)
	f.I32Const(int32(jt.chunkBytes))
	f.Call(g.c.allocAlignedFunc().Index)
	f.LocalTee(tup)
	f.GlobalGet(jt.gHead)
	f.I32Store(0)
	f.LocalGet(tup)
	f.GlobalSet(jt.gHead)
	f.LocalGet(tup)
	f.I32Const(joinChunkHdr)
	f.I32Add()
	f.GlobalSet(jt.gPos)
	f.LocalGet(tup)
	f.I32Const(int32(joinChunkHdr + jt.chunkCap*stride))
	f.I32Add()
	f.GlobalSet(jt.gEnd)
	f.End()

	f.GlobalGet(jt.gPos)
	f.LocalTee(tup)
	f.LocalGet(h)
	f.I64Const(joinHashBit)
	f.Op(wasm.OpI64Or)
	f.I64Store(0)
	g.storeTuple(tup, jt.layout, e)
	f.LocalGet(tup)
	f.I32Const(int32(stride))
	f.I32Add()
	f.GlobalSet(jt.gPos)
}

// probe walks the directory from the probe keys' slot, inline: an empty slot
// ends the walk, a tuple with equal keys is a match.
func (jt *joinTable) probe(g *gen, e *env, probeKeys []sema.Expr, match consumer) {
	f := g.f
	keys := g.keySrcsFromEnv(e, probeKeys)
	h := g.emitHash(keys, jt.hashW, true)
	idx := g.emitSlotIndex(&jt.htInfo, h)
	tup := f.AddLocal(wasm.I32)
	if jt.hashCheck {
		f.LocalGet(h)
		f.I64Const(joinHashBit)
		f.Op(wasm.OpI64Or)
		f.LocalSet(h)
	}

	f.Block(wasm.BlockVoid) // probe done
	f.Loop(wasm.BlockVoid)
	g.emitDirSlot(jt, idx)
	f.I32Load(0)
	f.LocalTee(tup)
	f.I32Eqz()
	f.BrIf(1) // empty slot: no more candidates
	if jt.hashCheck {
		f.LocalGet(tup)
		f.I64Load(0)
		f.LocalGet(h)
		f.Op(wasm.OpI64Eq)
		f.If(wasm.BlockVoid)
	}
	g.emitKeysEqual(&jt.layout, jt.keys, keys, tup)
	f.If(wasm.BlockVoid)
	match(g, tupleEnv(g, e, tup, jt.layout))
	f.End()
	if jt.hashCheck {
		f.End()
	}
	g.emitNextSlot(&jt.htInfo, idx)
	f.Br(0)
	f.End()
	f.End()
}

// emitDirSlot pushes the address of directory slot idx.
func (g *gen) emitDirSlot(jt *joinTable, idx wasm.Local) {
	f := g.f
	f.GlobalGet(jt.gBase)
	f.LocalGet(idx)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
}

// genJoinBarrier emits the two barrier exports of one join build table and
// declares the barrier on the build pipeline, the one emitted last. Export
// names carry the join's ordinal so multi-join queries keep them distinct.
func (c *compiler) genJoinBarrier(jt *joinTable) {
	ord := 0
	for _, b := range c.out.Barriers {
		if b.Join != nil {
			ord++
		}
	}
	jm := &JoinMerge{
		ReserveExport: fmt.Sprintf("q_join_reserve_%d", ord),
		FinishExport:  fmt.Sprintf("q_join_finish_%d", ord),
		HeadGlobal:    jt.gHead,
		PosGlobal:     jt.gPos,
		MaskGlobal:    jt.gMask,
		AlignGlobal:   c.gChunkAlign,
		Stride:        jt.layout.stride,
		ChunkCap:      jt.chunkCap,
		ChunkPages:    jt.chunkBytes / pageSize,
	}
	i32x2 := wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}}

	// reserve(total, foreignPages) -> addr: allocate the directory for total
	// tuples and a region the host aliases foreignPages pages of other
	// workers' chunks into; returns the region.
	f := c.b.NewFunc(jm.ReserveExport, i32x2)
	c.b.Export(jm.ReserveExport, wasm.ExternFunc, f.Index)
	slots := f.AddLocal(wasm.I32)
	// Serially (chunk alignment still 8) nobody else maps the newest chunk,
	// so while it is the last allocation its unused tail goes back to the
	// allocator: the directory starts right behind the tuples, and a small
	// build side commits no page for the space a chunk did not need.
	allocAligned := c.allocAlignedFunc()
	f.GlobalGet(c.gChunkAlign)
	f.I32Const(8)
	f.I32Eq()
	f.GlobalGet(jt.gHead)
	f.I32Const(0)
	f.I32Ne()
	f.I32And()
	f.GlobalGet(c.gHeap)
	f.GlobalGet(jt.gHead)
	f.I32Const(int32(jt.chunkBytes))
	f.I32Add()
	f.I32Eq()
	f.I32And()
	f.If(wasm.BlockVoid)
	f.GlobalGet(jt.gPos)
	f.GlobalSet(c.gHeap)
	f.End()
	// slots = pow2ceil(2·total) = 1 << (32 - clz(2·total - 1)). Wasm takes a
	// shift count mod 32, so total = 0 comes out as one slot, which stays
	// empty and ends every probe at once.
	f.I32Const(1)
	f.I32Const(32)
	f.LocalGet(f.Param(0))
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(1)
	f.I32Sub()
	f.Op(wasm.OpI32Clz)
	f.I32Sub()
	f.Op(wasm.OpI32Shl)
	f.LocalTee(slots)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.Call(c.allocFunc().Index)
	f.GlobalSet(jt.gBase)
	f.LocalGet(slots)
	f.I32Const(1)
	f.I32Sub()
	f.GlobalSet(jt.gMask)
	f.LocalGet(f.Param(1))
	f.I32Const(16)
	f.Op(wasm.OpI32Shl)
	f.Call(allocAligned.Index)

	// finish(addr, n) -> i32: place the n tuples starting at addr in the
	// directory, each in the first empty slot from its stored hash on. A
	// tuple whose hash word repeats its predecessor's starts behind the slot
	// that one took — everything before it is known to be full — so a run of
	// equal keys costs one step per tuple, not one walk of the run per tuple
	// (prev starts at 0, which no stored hash word is). The morsel-shaped
	// signature lets the executor drive it through callMorsel (tracing,
	// cancellation and fault injection apply).
	f = c.b.NewFunc(jm.FinishExport, i32x2)
	c.b.Export(jm.FinishExport, wasm.ExternFunc, f.Index)
	g := &gen{c: c, f: f}
	tup := f.Param(0)
	end := f.AddLocal(wasm.I32)
	idx := f.AddLocal(wasm.I32)
	slot := f.AddLocal(wasm.I32)
	h := f.AddLocal(wasm.I32)
	prev := f.AddLocal(wasm.I32)
	f.LocalGet(tup)
	f.LocalGet(f.Param(1))
	f.I32Const(int32(jt.layout.stride))
	f.I32Mul()
	f.I32Add()
	f.LocalSet(end)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(tup)
	f.LocalGet(end)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(tup)
	f.I32Load(0)
	f.LocalTee(h)
	f.LocalGet(prev)
	f.I32Eq()
	f.If(wasm.BlockVoid)
	g.emitNextSlot(&jt.htInfo, idx)
	f.Else()
	f.LocalGet(h)
	f.GlobalGet(jt.gMask)
	f.I32And()
	f.LocalSet(idx)
	f.LocalGet(h)
	f.LocalSet(prev)
	f.End()
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	g.emitDirSlot(jt, idx)
	f.LocalTee(slot)
	f.I32Load(0)
	f.I32Eqz()
	f.BrIf(1)
	g.emitNextSlot(&jt.htInfo, idx)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(slot)
	f.LocalGet(tup)
	f.I32Store(0)
	f.LocalAddI32(tup, int32(jt.layout.stride))
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)

	c.addBarrier(Barrier{Join: jm})
}
