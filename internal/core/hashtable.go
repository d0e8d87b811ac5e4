package core

import (
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Ad-hoc generated hash tables (§4.3, §5): open addressing with linear
// probing over power-of-two capacities. Keys and payloads are stored inline
// in the entry, monomorphically laid out for the QEP's types; hashing and
// key comparison are emitted directly into the pipeline code — no
// type-agnostic interface, no comparison callbacks, no per-access function
// calls. A group table starts small and a generated grow function doubles
// and rehashes it above 75 % load; a join table is built once at its exact
// size (joinbuild.go) and shares the hashing, key comparison and field
// access below.

// htEntryFlagSize reserves 8 bytes at the front of each entry for the
// occupancy flag so that 8-byte fields stay naturally aligned.
const htEntryFlagSize = 8

// htInfo describes one generated hash table.
type htInfo struct {
	name   string
	layout tupleLayout
	keys   []sema.Expr
	gBase  uint32
	gMask  uint32
	gCount uint32
	grow   *wasm.FuncBuilder
}

// groupInitialCap is the slot count a group table starts with.
const groupInitialCap = 1024

// keySrc supplies one key value in the current emission context: pushVal
// leaves the value (or CHAR pointer) on the stack.
type keySrc struct {
	t       types.Type
	pushVal func()
}

// fieldKeys returns the sources of the keys stored in the entry (or entry
// image) at ptr.
func (g *gen) fieldKeys(ptr wasm.Local, layout *tupleLayout, keys []sema.Expr) []keySrc {
	out := make([]keySrc, len(keys))
	for i, k := range keys {
		fld, ok := layout.find(k)
		if !ok {
			g.fail("key %s not in entry layout", k)
		}
		out[i] = keySrc{t: fld.t, pushVal: func() { g.loadField(ptr, fld) }}
	}
	return out
}

// hashWidths returns, per key position, the bytes of a CHAR key a join table
// hashes: the narrower of the build and probe key widths. Values equal under
// padded comparison agree on those bytes, whatever either side's padding.
func hashWidths(build, probe []sema.Expr) []int {
	out := make([]int, len(build))
	for i, k := range build {
		out[i] = min(k.Type().Length, probe[i].Type().Length)
	}
	return out
}

// newHashTable declares globals, the init step, and the grow function for a
// group table whose entries contain the given fields (keys must be a prefix
// subset of fields by structural equality).
func (c *compiler) newHashTable(name string, fields []sema.Expr, keys []sema.Expr) *htInfo {
	ht := &htInfo{
		name:   name,
		layout: buildLayout(dedupExprs(fields), htEntryFlagSize),
		keys:   keys,
		gBase:  c.b.AddGlobal(wasm.I32, true, 0),
		gMask:  c.b.AddGlobal(wasm.I32, true, 0),
		gCount: c.b.AddGlobal(wasm.I32, true, 0),
	}
	// The init step bakes initialCap*stride into an i32 immediate; halve the
	// capacity until the product fits comfortably, so a very wide entry can
	// never wrap into a negative (or tiny) allocation. The table still grows
	// on demand.
	initialCap := uint32(groupInitialCap)
	for initialCap > 64 && uint64(initialCap)*uint64(ht.layout.stride) > 1<<30 {
		initialCap >>= 1
	}

	// Init step: allocate the zeroed initial table.
	c.initSteps = append(c.initSteps, func(g *gen) {
		g.f.I32Const(int32(initialCap * ht.layout.stride))
		g.f.Call(c.allocFunc().Index)
		g.f.GlobalSet(ht.gBase)
		g.f.I32Const(int32(initialCap - 1))
		g.f.GlobalSet(ht.gMask)
		g.f.I32Const(0)
		g.f.GlobalSet(ht.gCount)
	})

	ht.grow = c.genGrowFunc(ht)
	return ht
}

// groupTable is what produceGroup asks of the code-generation style: the
// ad-hoc table below, inlined into the pipelines, or the library table of
// libstyle.go, reached through calls.
type groupTable interface {
	// fields is the entry layout: the group keys and one slot per aggregate.
	fields() *tupleLayout
	// keySrcs evaluates the key expressions of the current tuple, once.
	keySrcs(g *gen, e *env, keys []sema.Expr) []keySrc
	// upsert locates the entry of the keys, or claims one where there is
	// none: claim fills a new entry, fold updates the one found.
	upsert(g *gen, keys []keySrc, claim, fold func(entry wasm.Local))
	// scan emits the pipeline that visits every entry.
	scan(c *compiler, body func(g *gen, entry wasm.Local)) error
}

func (ht *htInfo) fields() *tupleLayout { return &ht.layout }

func (ht *htInfo) keySrcs(g *gen, e *env, keys []sema.Expr) []keySrc {
	return g.keySrcsFromEnv(e, keys)
}

func (ht *htInfo) upsert(g *gen, keys []keySrc, claim, fold func(entry wasm.Local)) {
	idx := g.emitSlotIndex(ht, g.emitHash(keys, nil, false))
	entry := g.f.AddLocal(wasm.I32)
	g.emitUpsert(ht, keys, idx, entry, func() {
		g.f.LocalGet(entry)
		g.f.I32Const(1)
		g.f.I32Store(0) // occupancy flag
		claim(entry)
	}, func() { fold(entry) })
}

// emitUpsert is the one probe-or-claim loop of an ad-hoc group table, inlined
// where a tuple (the feeding pipeline) or another worker's entry (the fold
// barrier) meets the table: walk from slot idx, the keys' own, with entry
// pointing at the slot under inspection; an empty slot is claimed — claim must
// leave the occupancy flag set — and counted, and the table grown above its
// load factor; a slot holding equal keys is folded into.
func (g *gen) emitUpsert(ht *htInfo, keys []keySrc, idx, entry wasm.Local, claim, fold func()) {
	f := g.f
	f.Block(wasm.BlockVoid) // done
	f.Loop(wasm.BlockVoid)
	g.emitEntryPtr(ht, idx, entry)
	f.LocalGet(entry)
	f.Emit(wasm.OpI32Load, 0, 2) // occupancy flag
	f.I32Eqz()
	f.If(wasm.BlockVoid)
	claim()
	// count++, maybe grow.
	f.GlobalGet(ht.gCount)
	f.I32Const(1)
	f.I32Add()
	f.GlobalSet(ht.gCount)
	g.emitMaybeGrow(ht)
	f.Br(2) // done
	f.End()
	// Occupied: keys equal → fold; else advance.
	g.emitKeysEqual(&ht.layout, ht.keys, keys, entry)
	f.If(wasm.BlockVoid)
	fold()
	f.Br(2) // done
	f.End()
	g.emitNextSlot(ht, idx)
	f.Br(0)
	f.End()
	f.End()
}

// scan iterates slots [begin, end) and skips the empty ones.
func (ht *htInfo) scan(c *compiler, body func(g *gen, entry wasm.Local)) error {
	return c.rangePipeline(PipeScanSlots, -1, ht.gMask, func(g *gen, slot wasm.Local) {
		entry := g.f.AddLocal(wasm.I32)
		g.emitEntryPtr(ht, slot, entry)
		g.f.LocalGet(entry)
		g.f.Emit(wasm.OpI32Load, 0, 2)
		g.f.If(wasm.BlockVoid)
		body(g, entry)
		g.f.End()
	})
}

func dedupExprs(in []sema.Expr) []sema.Expr {
	var out []sema.Expr
	for _, e := range in {
		dup := false
		for _, o := range out {
			if sema.Equal(o, e) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

// emitHash computes the hash of the key sources into an i64 local and
// returns it. Each numeric key, and each chunk of a CHAR key, is one
// multiply-xor step h = (h ^ v) · K. A CHAR key is hashed over a width fixed
// at compile time — widths[i] bytes, or the key's own width where widths is
// nil — split widest first into 8/4/2/1-byte chunks, so there is no
// trailing-space scan and no loop. Values equal under padded comparison must
// agree on the hashed bytes: a group table's keys all have the key's width,
// a join table hashes both sides over the narrower side's (hashWidths). When
// canonFloat is set, -0.0 hashes like +0.0 (join tables, where the probe's
// F64Eq treats them as equal and a hash mismatch would silently drop
// matching rows).
func (g *gen) emitHash(keys []keySrc, widths []int, canonFloat bool) wasm.Local {
	const mul = -0x61c8864680b583eb // golden-ratio multiplier
	f := g.f
	h := f.AddLocal(wasm.I64)
	f.I64Const(-3750763034362895579) // FNV-1a 64 offset basis
	f.LocalSet(h)
	mix := func(push func()) {
		f.LocalGet(h)
		push()
		f.Op(wasm.OpI64Xor)
		f.I64Const(mul)
		f.I64Mul()
		f.LocalSet(h)
	}
	wideChunk := false
	for i, k := range keys {
		if k.t.Kind != types.Char {
			mix(func() {
				k.pushVal()
				if canonFloat && k.t.Kind == types.Float64 {
					// v + 0.0 maps -0.0 to +0.0 and leaves every other value
					// (including NaN) alone — one branch-free instruction.
					f.F64Const(0)
					f.F64Add()
				}
				g.toI64Bits(k.t)
			})
			continue
		}
		w := k.t.Length
		if widths != nil {
			w = widths[i]
		}
		for _, c := range charChunks(0, w) {
			mix(func() { g.loadChunk(charRef{base: k.pushVal}, c) })
			wideChunk = wideChunk || c.n == 8
		}
	}
	if wideChunk {
		// A multiply moves bits only upwards, so the last bytes of an 8-byte
		// chunk reach only the top of h, which the avalanche below does not
		// bring down to the slot index: h ^= h >> 33, h *= K, h ^= h >> 33
		// first (the first half of MurmurHash3's finalizer).
		xorShift := func() {
			f.LocalGet(h)
			f.LocalGet(h)
			f.I64Const(33)
			f.Op(wasm.OpI64ShrU)
			f.Op(wasm.OpI64Xor)
		}
		xorShift()
		f.I64Const(mul)
		f.I64Mul()
		f.LocalSet(h)
		xorShift()
		f.LocalSet(h)
	}
	// Final avalanche: h ^= h >> 29.
	f.LocalGet(h)
	f.LocalGet(h)
	f.I64Const(29)
	f.Op(wasm.OpI64ShrU)
	f.Op(wasm.OpI64Xor)
	f.LocalSet(h)
	return h
}

// toI64Bits converts the stack top of the given type to i64 bits.
func (g *gen) toI64Bits(t types.Type) {
	switch t.Kind {
	case types.Bool, types.Int32, types.Date:
		g.f.Op(wasm.OpI64ExtendI32S)
	case types.Int64, types.Decimal:
	case types.Float64:
		g.f.Op(wasm.OpI64ReinterpretF64)
	default:
		g.fail("cannot hash type %s", t)
	}
}

// emitSlotIndex computes (h & mask) as an i32 local from the i64 hash.
func (g *gen) emitSlotIndex(ht *htInfo, h wasm.Local) wasm.Local {
	f := g.f
	idx := f.AddLocal(wasm.I32)
	f.LocalGet(h)
	f.Op(wasm.OpI32WrapI64)
	f.GlobalGet(ht.gMask)
	f.I32And()
	f.LocalSet(idx)
	return idx
}

// emitNextSlot advances idx to the next slot of a power-of-two table.
func (g *gen) emitNextSlot(ht *htInfo, idx wasm.Local) {
	f := g.f
	f.LocalGet(idx)
	f.I32Const(1)
	f.I32Add()
	f.GlobalGet(ht.gMask)
	f.I32And()
	f.LocalSet(idx)
}

// emitEntryPtr computes base + idx*stride into a local.
func (g *gen) emitEntryPtr(ht *htInfo, idx wasm.Local, entry wasm.Local) {
	f := g.f
	f.GlobalGet(ht.gBase)
	f.LocalGet(idx)
	f.I32Const(int32(ht.layout.stride))
	f.I32Mul()
	f.I32Add()
	f.LocalSet(entry)
}

// loadField pushes the field's value (or CHAR pointer) from the entry at
// the pointer local.
func (g *gen) loadField(ptr wasm.Local, fld field) {
	f := g.f
	f.LocalGet(ptr)
	switch fld.t.Kind {
	case types.Bool:
		f.I32Load8U(fld.offset)
	case types.Int32, types.Date:
		f.I32Load(fld.offset)
	case types.Int64, types.Decimal:
		f.I64Load(fld.offset)
	case types.Float64:
		f.F64Load(fld.offset)
	case types.Char:
		if fld.offset != 0 {
			f.I32Const(int32(fld.offset))
			f.I32Add()
		}
	}
}

// storeFieldFromStack stores a value already on the stack into the entry
// field (numeric types only; CHAR uses copyCharField).
func (g *gen) storeFieldFromStack(ptr wasm.Local, fld field, pushVal func()) {
	f := g.f
	switch fld.t.Kind {
	case types.Bool:
		f.LocalGet(ptr)
		pushVal()
		f.I32Store8(fld.offset)
	case types.Int32, types.Date:
		f.LocalGet(ptr)
		pushVal()
		f.I32Store(fld.offset)
	case types.Int64, types.Decimal:
		f.LocalGet(ptr)
		pushVal()
		f.I64Store(fld.offset)
	case types.Float64:
		f.LocalGet(ptr)
		pushVal()
		f.F64Store(fld.offset)
	case types.Char:
		g.copyChar(ptr, fld.offset, pushVal, fld.t.Length)
	}
}

// storeTuple materializes the current tuple: every field of the layout is
// evaluated in e and stored at ptr.
func (g *gen) storeTuple(ptr wasm.Local, layout tupleLayout, e *env) {
	for _, fld := range layout.fields {
		g.storeFieldFromStack(ptr, fld, func() { g.expr(e, fld.expr) })
	}
}

// tupleEnv returns e extended by the fields of the materialized tuple at ptr.
func tupleEnv(g *gen, e *env, ptr wasm.Local, layout tupleLayout) *env {
	e2 := &env{binds: append([]binding{}, e.binds...)}
	for _, fld := range layout.fields {
		e2.add(fld.expr, func() { g.loadField(ptr, fld) })
	}
	return e2
}

// copyCharInlineMax is the widest CHAR field copied with straight-line code.
const copyCharInlineMax = 64

// copyChar copies a CHAR value (source pointer pushed by pushSrc) into
// dst+offset. Up to copyCharInlineMax bytes the copy is straight-line
// load–store pairs, widest first, of exactly width bytes — a field can end
// where a mapped column ends, so nothing may read past it. Wider fields keep
// a byte loop.
func (g *gen) copyChar(dst wasm.Local, offset uint32, pushSrc func(), width int) {
	f := g.f
	src := f.AddLocal(wasm.I32)
	pushSrc()
	f.LocalSet(src)
	if width <= copyCharInlineMax {
		for at := uint32(0); at < uint32(width); {
			f.LocalGet(dst)
			f.LocalGet(src)
			// Alignment hint 0: fields follow each other unpadded.
			switch rest := uint32(width) - at; {
			case rest >= 8:
				f.Emit(wasm.OpI64Load, uint64(at), 0)
				f.Emit(wasm.OpI64Store, uint64(offset+at), 0)
				at += 8
			case rest >= 4:
				f.Emit(wasm.OpI32Load, uint64(at), 0)
				f.Emit(wasm.OpI32Store, uint64(offset+at), 0)
				at += 4
			case rest >= 2:
				f.Emit(wasm.OpI32Load16U, uint64(at), 0)
				f.Emit(wasm.OpI32Store16, uint64(offset+at), 0)
				at += 2
			default:
				f.I32Load8U(at)
				f.I32Store8(offset + at)
				at++
			}
		}
		return
	}
	i := f.AddLocal(wasm.I32)
	f.I32Const(0)
	f.LocalSet(i)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.I32Const(int32(width))
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(dst)
	f.LocalGet(i)
	f.I32Add()
	f.LocalGet(src)
	f.LocalGet(i)
	f.I32Add()
	f.I32Load8U(0)
	f.I32Store8(offset)
	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()
}

// emitKeysEqual pushes 1 if the probe keys equal the keys stored in the
// entry at the pointer local, whose layout holds them. Comparison code is
// fully inlined and monomorphic per key type and, for CHAR, per width pair;
// it is also the body of the library style's comparator.
func (g *gen) emitKeysEqual(layout *tupleLayout, keys []sema.Expr, probe []keySrc, entry wasm.Local) {
	f := g.f
	for i, k := range probe {
		fld, ok := layout.find(keys[i])
		if !ok {
			g.fail("key %s not in entry layout", keys[i])
			f.I32Const(0)
			return
		}
		switch k.t.Kind {
		case types.Char:
			g.emitCharEq(charRef{base: k.pushVal}, k.t.Length, g.localChars(entry, fld.offset), fld.t.Length)
		case types.Float64:
			k.pushVal()
			g.loadField(entry, fld)
			f.Op(wasm.OpF64Eq)
		case types.Int64, types.Decimal:
			k.pushVal()
			g.loadField(entry, fld)
			f.Op(wasm.OpI64Eq)
		default:
			k.pushVal()
			g.loadField(entry, fld)
			f.I32Eq()
		}
		if i > 0 {
			f.I32And()
		}
	}
	if len(probe) == 0 {
		f.I32Const(1)
	}
}

// genGrowFunc generates the doubling/rehash routine for a hash table.
func (c *compiler) genGrowFunc(ht *htInfo) *wasm.FuncBuilder {
	f := c.b.NewFunc("grow_"+ht.name, wasm.FuncType{})
	g := &gen{c: c, f: f}

	oldBase := f.AddLocal(wasm.I32)
	oldCap := f.AddLocal(wasm.I32)
	newBase := f.AddLocal(wasm.I32)
	newMask := f.AddLocal(wasm.I32)
	i := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)
	ne := f.AddLocal(wasm.I32)
	j := f.AddLocal(wasm.I32)
	w := f.AddLocal(wasm.I32)

	stride := int32(ht.layout.stride)

	f.GlobalGet(ht.gBase)
	f.LocalSet(oldBase)
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(oldCap)
	// newCap = oldCap*2; newMask = newCap-1
	f.LocalGet(oldCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(int32(ht.layout.stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.LocalSet(newBase)
	f.LocalGet(oldCap)
	f.I32Const(1)
	f.Op(wasm.OpI32Shl)
	f.I32Const(1)
	f.I32Sub()
	f.LocalSet(newMask)

	// for i in 0..oldCap
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(oldCap)
	f.I32GeU()
	f.BrIf(1)
	// entry = oldBase + i*stride
	f.LocalGet(oldBase)
	f.LocalGet(i)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(entry)
	// if filled
	f.LocalGet(entry)
	f.Emit(wasm.OpI32Load, 0, 2)
	f.If(wasm.BlockVoid)
	// rehash from stored keys
	h := g.emitHash(g.fieldKeys(entry, &ht.layout, ht.keys), nil, false)
	// j = h & newMask
	f.LocalGet(h)
	f.Op(wasm.OpI32WrapI64)
	f.LocalGet(newMask)
	f.I32And()
	f.LocalSet(j)
	// find first empty slot in new table
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(newBase)
	f.LocalGet(j)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(ne)
	f.LocalGet(ne)
	f.Emit(wasm.OpI32Load, 0, 2)
	f.I32Eqz()
	f.BrIf(1)
	f.LocalGet(j)
	f.I32Const(1)
	f.I32Add()
	f.LocalGet(newMask)
	f.I32And()
	f.LocalSet(j)
	f.Br(0)
	f.End()
	f.End()
	emitWordCopy(f, w, ne, entry, func() { f.I32Const(stride) })
	f.End() // if filled
	// i++
	f.LocalAddI32(i, 1)
	f.Br(0)
	f.End()
	f.End()

	f.LocalGet(newBase)
	f.GlobalSet(ht.gBase)
	f.LocalGet(newMask)
	f.GlobalSet(ht.gMask)
	if g.err != nil {
		panic(g.err)
	}
	return f
}

// emitMaybeGrow emits the load-factor check and conditional grow call.
func (g *gen) emitMaybeGrow(ht *htInfo) {
	f := g.f
	f.GlobalGet(ht.gCount)
	f.I32Const(4)
	f.I32Mul()
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
	f.I32Const(3)
	f.I32Mul()
	f.I32GeU()
	f.If(wasm.BlockVoid)
	f.Call(ht.grow.Index)
	f.End()
}

// keySrcsFromEnv materializes key expressions into locals once and returns
// key sources reading those locals (so probe loops do not recompute keys).
func (g *gen) keySrcsFromEnv(e *env, keys []sema.Expr) []keySrc {
	f := g.f
	out := make([]keySrc, len(keys))
	for i, k := range keys {
		t := k.Type()
		l := f.AddLocal(wasmType(t))
		g.expr(e, k)
		f.LocalSet(l)
		lv := l
		out[i] = keySrc{t: t, pushVal: func() { f.LocalGet(lv) }}
	}
	return out
}
