package vectorized

import (
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

// field is one value laid out in 8-byte words: a normalized hash key, a
// hash-entry payload or aggregate slot, or a column of a sort-array slot.
type field struct {
	expr    sema.Expr
	char    bool
	width   int // CHAR width; its bytes are rounded up to whole words
	words   int // words occupied
	byteOff int // offset within the key / payload / slot area
}

// describe lays exprs out one after another from byte offset off and
// returns the fields and the offset past the last.
func describe(exprs []sema.Expr, off int) ([]field, int) {
	out := make([]field, len(exprs))
	for i, e := range exprs {
		d := field{expr: e, byteOff: off, words: 1}
		if t := e.Type(); t.Kind == types.Char {
			d.char, d.width, d.words = true, t.Length, roundup8(t.Length)/8
		}
		off += d.words * 8
		out[i] = d
	}
	return out, off
}

// tableColumns lists, as leaves, the referenced columns of the given tables.
func (r *Runner) tableColumns(tables map[int]bool) []sema.Expr {
	var out []sema.Expr
	for ti := range r.q.Tables {
		if !tables[ti] {
			continue
		}
		for ci, col := range r.q.Tables[ti].Table.Columns {
			if r.used[[2]int{ti, ci}] {
				out = append(out, &sema.ColRef{Table: ti, Col: ci, T: col.Type, Name: col.Name})
			}
		}
	}
	return out
}

// alignKeys gives each key of a join the same key words on both sides: a CHAR
// key takes the wider column's, and kw_char space-fills the narrower value up
// to it, so values that differ only in padding have equal key words (their
// hashes, taken over the unpadded bytes, agree already). It returns the key
// words per entry.
func alignKeys(build, probe []field) int {
	off := 0
	for i := range build {
		w := max(build[i].words, probe[i].words)
		build[i].words, probe[i].words = w, w
		build[i].byteOff, probe[i].byteOff = off, off
		off += w * 8
	}
	return off / 8
}

// hashAndNormalize computes the hash vector and fills the key-word area kw
// for the given key expressions over a batch. canonFloat hashes (and stores key
// words for) Float64 keys through a -0.0→+0.0 canonical copy so the join's
// bit-compared key words agree wherever float equality does; group keys
// keep raw bits, where ±0 forming two groups is the established behavior.
func (r *Runner) hashAndNormalize(b *batch, keys []field, kw uint32, nKW int, canonFloat bool) vec {
	hv := r.newVec()
	for i, d := range keys {
		first := uint64(0)
		if i == 0 {
			first = 1
		}
		src := r.values(b, d)
		if d.char {
			r.call("hash_char", append(src, uint64(hv.addr), first)...)
			r.call("kw_char", append(src, uint64(kw), uint64(nKW), uint64(d.byteOff), uint64(d.words*8))...)
			continue
		}
		if canonFloat && d.expr.Type().Kind == types.Float64 {
			src[2] = uint64(r.mapVec(b, "canon_f64", src[2]).addr)
		}
		r.call("hash_word", append(src, uint64(hv.addr), first)...)
		r.call("kw_word", append(src, uint64(kw), uint64(nKW), uint64(d.byteOff/8))...)
	}
	return hv
}

// values are the leading kernel arguments that name field d's values in b:
// the selection, then a CHAR column or buffer as (address, width, batch
// start), anything else as its evaluated vector.
func (r *Runner) values(b *batch, d field) []uint64 {
	if d.char {
		cb := r.charLeaf(b, d.expr)
		return []uint64{uint64(b.sel), uint64(b.selN), uint64(cb.addr), uint64(cb.width), uint64(cb.start)}
	}
	return []uint64{uint64(b.sel), uint64(b.selN), uint64(r.evalVec(b, d.expr).addr)}
}

// kind is the suffix of the kernel that handles field d: _char or _word.
func (d field) kind() string {
	if d.char {
		return "_char"
	}
	return "_word"
}

// newTable allocates a hash table of 1024 entries of esize bytes and
// returns its control block and a key-word area for a batch of nkw-word keys.
func (r *Runner) newTable(esize, nkw, npw int) (ctrl, kw uint32) {
	const initialCap = 1024
	ctrl = r.guestAlloc(32)
	r.mem.PutU32(ctrl+htOffBase, r.guestAlloc(uint32(initialCap*esize)))
	r.mem.PutU32(ctrl+htOffMask, uint32(initialCap-1))
	r.mem.PutU32(ctrl+htOffCount, 0)
	r.mem.PutU32(ctrl+htOffESize, uint32(esize))
	r.mem.PutU32(ctrl+htOffNKW, uint32(nkw))
	r.mem.PutU32(ctrl+htOffNPW, uint32(npw))
	return ctrl, r.guestAlloc(uint32(BatchSize * 8 * nkw))
}

// ptrVec allocates an operator's vector of located entries, kept across its
// input's batches.
func (r *Runner) ptrVec() vec { return vec{addr: r.guestAlloc(BatchSize * 8)} }

// loadEntries materializes fields of the n entries listed in ptrs (a field
// at byte base + byteOff of its entry) as leaves of the compact batch b.
func (r *Runner) loadEntries(b *batch, fields []field, n int, ptrs vec, base int) {
	for _, d := range fields {
		off := uint64(base + d.byteOff)
		if d.char {
			cb := r.newCharBuf(d.words * 8)
			r.call("entry_char", uint64(n), uint64(ptrs.addr), off, uint64(cb.width), uint64(cb.addr))
			b.chars[leafKey(d.expr)] = cb
		} else {
			v := r.newVec()
			r.call("entry_word", uint64(n), uint64(ptrs.addr), off, uint64(v.addr))
			b.vecs[leafKey(d.expr)] = v
		}
	}
}

// ---------------------------------------------------------------------------
// Grouping & aggregation.

// aggRefs names aggregate i's result as the leaf AggRef{i}.
func aggRefs(aggs []sema.Aggregate) []sema.Expr {
	refs := make([]sema.Expr, len(aggs))
	for i, a := range aggs {
		refs[i] = &sema.AggRef{Idx: i, T: a.T}
	}
	return refs
}

// aggregate folds batch b into the aggregate slots (entry byte slotOff(i))
// of the entries in ptrs. The nNew fresh entries listed in r.newSel first
// have their MIN/MAX seeded with their first row's value.
func (r *Runner) aggregate(b *batch, aggs []sema.Aggregate, ptrs vec, slotOff func(int) int, nNew int) {
	args := make([]vec, len(aggs))
	for i, a := range aggs {
		if a.Arg != nil {
			args[i] = r.evalVec(b, a.Arg)
		}
	}
	for i, a := range aggs {
		if nNew > 0 && (a.Func == sema.AggMin || a.Func == sema.AggMax) {
			r.call("agg_seed", uint64(r.newSel), uint64(nNew), uint64(ptrs.addr),
				uint64(args[i].addr), uint64(slotOff(i)))
		}
	}
	for i, a := range aggs {
		off := uint64(slotOff(i))
		if a.Func == sema.AggCountStar || a.Func == sema.AggCount {
			r.call("agg_count", uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), off)
			continue
		}
		name := [...]string{sema.AggSum: "agg_sum", sema.AggMin: "agg_min", sema.AggMax: "agg_max"}[a.Func]
		r.call(name+wordSuffix(a.T), uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), uint64(args[i].addr), off)
	}
}

func (r *Runner) execGroup(g *plan.Group, emit func(*batch) error) error {
	if len(g.Keys) == 0 {
		return r.execGlobalAgg(g, emit)
	}
	keys, kwBytes := describe(g.Keys, 0)
	nKW := kwBytes / 8
	// An entry holds the key words, then one word per aggregate; the
	// finished groups name them as KeyRef and AggRef leaves.
	var refs []sema.Expr
	for i, k := range g.Keys {
		refs = append(refs, &sema.KeyRef{Idx: i, T: k.Type()})
	}
	fields, end := describe(append(refs, aggRefs(g.Aggs)...), 0)
	slotOff := func(i int) int { return entryOffKeys + fields[len(keys)+i].byteOff }
	ctrl, kw := r.newTable(entryOffKeys+end, nKW, len(g.Aggs))
	ptrs := r.ptrVec()
	err := r.exec(g.Input, func(b *batch) error {
		hv := r.hashAndNormalize(b, keys, kw, nKW, false)
		nNew := r.callSel("group_locate", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
			uint64(kw), uint64(ctrl), uint64(ptrs.addr), uint64(r.newSel))
		r.aggregate(b, g.Aggs, ptrs, slotOff, nNew)
		return nil
	})
	if err != nil {
		return err
	}

	// Scan the table in batches.
	for slot := 0; ; {
		r.resetScratch()
		outPtrs := r.newVec()
		packed := r.call("ht_scan", uint64(ctrl), uint64(slot), BatchSize, uint64(outPtrs.addr))
		nOut := int(packed >> 32)
		slot = int(uint32(packed))
		if nOut == 0 {
			return nil
		}
		b := r.compactBatch(nOut)
		r.loadEntries(b, fields, nOut, outPtrs, entryOffKeys)
		// HAVING filters finished groups; the batch binds KeyRef/AggRef
		// leaves so applyPred resolves them like any other predicate.
		if err := r.filterEmit(b, g.Having, emit); err != nil {
			return err
		}
	}
}

// execGlobalAgg aggregates a single group into one pre-allocated state
// entry — no hash table, no locate call per row ("simple aggregation").
func (r *Runner) execGlobalAgg(g *plan.Group, emit func(*batch) error) error {
	fields, end := describe(aggRefs(g.Aggs), 0)
	entry := r.guestAlloc(uint32(entryOffKeys + end))
	slotOff := func(i int) int { return entryOffKeys + fields[i].byteOff }

	ptrs := r.ptrVec()
	seeded := false
	err := r.exec(g.Input, func(b *batch) error {
		if b.selN == 0 {
			return nil
		}
		// All rows share the one state entry.
		r.call("fill", uint64(b.sel), uint64(b.selN), uint64(entry), uint64(ptrs.addr))
		nNew := 0
		if !seeded {
			// Seed MIN/MAX with the batch's first selected row.
			seeded, nNew = true, 1
			r.mem.PutU32(r.newSel, r.mem.U32(b.sel))
		}
		r.aggregate(b, g.Aggs, ptrs, slotOff, nNew)
		return nil
	})
	if err != nil {
		return err
	}
	// On empty input the zero-filled state entry is the zero group: it flows
	// through HAVING and the output expressions like any other, so AVG is
	// 0/0 = NaN exactly as in the compiled engine.
	r.resetScratch()
	b := r.compactBatch(1)
	outPtrs := r.newVec()
	r.mem.PutU64(outPtrs.addr, uint64(entry))
	r.loadEntries(b, fields, 1, outPtrs, entryOffKeys)
	return r.filterEmit(b, g.Having, emit)
}

// ---------------------------------------------------------------------------
// Hash join.

func (r *Runner) execJoin(j *plan.HashJoin, emit func(*batch) error) error {
	keys, _ := describe(j.BuildKeys, 0)
	probeKeys, _ := describe(j.ProbeKeys, 0)
	nKW := alignKeys(keys, probeKeys)
	// Payload: every referenced column of the build side.
	payload, end := describe(r.tableColumns(j.Build.Tables()), 0)
	payloadBase := entryOffKeys + nKW*8
	ctrl, kw := r.newTable(payloadBase+end, nKW, end/8)
	ptrs := r.ptrVec()
	err := r.exec(j.Build, func(b *batch) error {
		// A NaN key can never satisfy the probe's float equality — filter
		// those rows out before insertion (in-place sel compaction is safe:
		// the write index never passes the read index).
		for _, d := range keys {
			if d.expr.Type().Kind == types.Float64 {
				b.selN = r.callSel("sel_nonnan_f64", append(r.values(b, d), uint64(b.sel))...)
			}
		}
		hv := r.hashAndNormalize(b, keys, kw, nKW, true)
		r.call("join_insert", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
			uint64(kw), uint64(ctrl), uint64(ptrs.addr))
		for _, d := range payload {
			// store_entry_<kind>(sel, n, ptrs, values…, off[, nBytes])
			src := r.values(b, d)
			args := append([]uint64{src[0], src[1], uint64(ptrs.addr)}, src[2:]...)
			args = append(args, uint64(payloadBase+d.byteOff))
			if d.char {
				args = append(args, uint64(d.words*8))
			}
			r.call("store_entry"+d.kind(), args...)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Probe side: leaves needed downstream from the probe side. The probe
	// state is the join's own: another join's probe loop runs inside emit.
	probeLeaves, _ := describe(r.tableColumns(j.Probe.Tables()), 0)
	state := r.guestAlloc(8)
	return r.exec(j.Probe, func(b *batch) error {
		hv := r.hashAndNormalize(b, probeKeys, kw, nKW, true)
		// Resumable probe loop with a bounded match buffer; each round's
		// scratch is released before the next.
		r.mem.PutU32(state, 0)
		r.mem.PutU32(state+4, ^uint32(0))
		round := r.mark()
		for {
			r.release(round)
			outPtrs := r.newVec()
			packed := r.call("join_probe", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
				uint64(kw), uint64(ctrl), uint64(state),
				uint64(r.outRowSel), uint64(outPtrs.addr), BatchSize)
			if nOut := int(packed >> 32); nOut > 0 {
				ob := r.compactBatch(nOut)
				// Build-side fields from entries, probe-side fields gathered
				// through the match row list.
				r.loadEntries(ob, payload, nOut, outPtrs, payloadBase)
				r.gatherMatches(b, ob, probeLeaves, nOut)
				// Residual predicates refine the joined batch.
				if err := r.filterEmit(ob, j.Residual, emit); err != nil {
					return err
				}
			}
			if packed&1 != 0 {
				return nil
			}
		}
	})
}

// gatherMatches materializes the probe batch b's leaves for the nOut matches
// listed in r.outRowSel as leaves of the joined batch ob.
func (r *Runner) gatherMatches(b, ob *batch, leaves []field, nOut int) {
	for _, d := range leaves {
		key := leafKey(d.expr)
		if d.char {
			cb := r.charLeaf(b, d.expr)
			out := r.newCharBuf(cb.width)
			r.call("compact_gather_char", uint64(r.outRowSel), uint64(nOut),
				uint64(cb.addr), uint64(cb.width), uint64(cb.start), uint64(out.addr))
			ob.chars[key] = out
			continue
		}
		out := r.newVec()
		if v, ok := r.leafVec(b, d.expr); ok {
			r.call("compact_gather", uint64(r.outRowSel), uint64(nOut), uint64(v.addr), uint64(out.addr))
		} else if cr, ok := d.expr.(*sema.ColRef); ok && b.start >= 0 {
			elem, _ := elemOf(cr.T)
			r.call("compact_gather_"+elemNames[elem], uint64(r.outRowSel), uint64(nOut),
				uint64(r.colBase[[2]int{cr.Table, cr.Col}]), uint64(b.start), uint64(out.addr))
		} else {
			fail("vectorized: probe value %s is not available", d.expr)
		}
		ob.vecs[key] = out
	}
}

// ---------------------------------------------------------------------------
// Sort.

func (r *Runner) execSort(s *plan.Sort, emit func(*batch) error) error {
	// Key bytes first (order-preserving encodings), then payload fields: the
	// distinct leaves of the output expressions.
	var keyExprs, leaves []sema.Expr
	for _, k := range s.Keys {
		keyExprs = append(keyExprs, k.Expr)
	}
	seen := map[string]bool{}
	for _, oc := range r.q.Select {
		for _, l := range exprLeaves(oc.Expr) {
			if !seen[leafKey(l)] {
				seen[leafKey(l)] = true
				leaves = append(leaves, l)
			}
		}
	}
	skeys, keyLen := describe(keyExprs, 0)
	payload, end := describe(leaves, keyLen)
	stride := roundup8(end)

	ctrl := r.guestAlloc(16)
	r.mem.PutU32(ctrl+arrOffBase, r.guestAlloc(uint32(1024*stride)))
	r.mem.PutU32(ctrl+arrOffCount, 0)
	r.mem.PutU32(ctrl+arrOffCap, 1024)
	r.mem.PutU32(ctrl+arrOffStride, uint32(stride))

	err := r.exec(s.Input, func(b *batch) error {
		startIdx := uint64(uint32(r.call("arr_reserve", uint64(ctrl), uint64(b.selN))))
		arrBase, stride := uint64(r.mem.U32(ctrl+arrOffBase)), uint64(stride)
		for i, d := range skeys {
			// sk_encode_<type>(sel, n, values…, base, stride, off[, nBytes], startIdx, desc)
			args := append(r.values(b, d), arrBase, stride, uint64(d.byteOff))
			name := "sk_encode" + wordSuffix(d.expr.Type())
			if d.char {
				name, args = "sk_encode_char", append(args, uint64(d.words*8))
			}
			desc := uint64(0)
			if s.Keys[i].Desc {
				desc = 1
			}
			r.call(name, append(args, startIdx, desc)...)
		}
		for _, d := range payload {
			r.call("arr_store"+d.kind(), append(r.values(b, d), arrBase, stride, uint64(d.byteOff), startIdx)...)
		}
		return nil
	})
	if err != nil {
		return err
	}

	count := int(r.mem.U32(ctrl + arrOffCount))
	arrBase := r.mem.U32(ctrl + arrOffBase)
	pivS := r.guestAlloc(uint32(stride))
	isoS := r.guestAlloc(uint32(stride))
	r.call("qsort_g", uint64(arrBase), 0, uint64(count), uint64(stride), uint64(keyLen),
		uint64(pivS), uint64(isoS))

	for startRow := 0; startRow < count; startRow += BatchSize {
		r.resetScratch()
		n := min(count-startRow, BatchSize)
		b := r.compactBatch(n)
		for _, d := range payload {
			if d.char {
				// Read exactly the declared width: the slot's rounding
				// padding is uninitialized.
				cb := r.newCharBuf(d.width)
				r.call("arr_read_char", uint64(n), uint64(arrBase), uint64(stride),
					uint64(d.byteOff), uint64(cb.width), uint64(startRow), uint64(cb.addr))
				b.chars[leafKey(d.expr)] = cb
			} else {
				v := r.newVec()
				r.call("arr_read_word", uint64(n), uint64(arrBase), uint64(stride),
					uint64(d.byteOff), uint64(startRow), uint64(v.addr))
				b.vecs[leafKey(d.expr)] = v
			}
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

func exprLeaves(e sema.Expr) []sema.Expr {
	switch x := e.(type) {
	case *sema.ColRef, *sema.KeyRef, *sema.AggRef:
		return []sema.Expr{e}
	case *sema.Binary:
		return append(exprLeaves(x.L), exprLeaves(x.R)...)
	case *sema.Not:
		return exprLeaves(x.E)
	case *sema.Cast:
		return exprLeaves(x.E)
	case *sema.Like:
		return exprLeaves(x.E)
	case *sema.Case:
		var out []sema.Expr
		for _, w := range x.Whens {
			out = append(out, exprLeaves(w.Cond)...)
			out = append(out, exprLeaves(w.Then)...)
		}
		return append(out, exprLeaves(x.Else)...)
	case *sema.ExtractYear:
		return exprLeaves(x.E)
	}
	return nil
}
