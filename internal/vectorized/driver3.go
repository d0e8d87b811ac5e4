package vectorized

import (
	"fmt"
	"math"

	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

// keyDesc describes one normalized hash key or materialized field.
type keyDesc struct {
	expr    sema.Expr
	char    bool
	width   int // char width (rounded up to 8 in normalized form)
	words   int // words occupied in key area
	byteOff int // offset within the key/payload area
}

func describeKeys(exprs []sema.Expr) ([]keyDesc, int) {
	var out []keyDesc
	off := 0
	for _, e := range exprs {
		d := keyDesc{expr: e, byteOff: off}
		if e.Type().Kind == types.Char {
			d.char = true
			d.width = e.Type().Length
			d.words = roundup8(d.width) / 8
		} else {
			d.words = 1
		}
		off += d.words * 8
		out = append(out, d)
	}
	return out, off / 8
}

// alignKeys gives each key of a join the same key words on both sides: a CHAR
// key takes the wider column's, and kw_char space-fills the narrower value up
// to it, so values that differ only in padding have equal key words (their
// hashes, taken over the unpadded bytes, agree already). It returns the key
// words per entry.
func alignKeys(build, probe []keyDesc) int {
	off := 0
	for i := range build {
		w := max(build[i].words, probe[i].words)
		build[i].words, probe[i].words = w, w
		build[i].byteOff, probe[i].byteOff = off, off
		off += w * 8
	}
	return off / 8
}

// hashAndNormalize computes the hash vector and the key-word area for the
// given key expressions over a batch. canonFloat hashes (and stores key
// words for) Float64 keys through a -0.0→+0.0 canonical copy so the join's
// bit-compared key words agree wherever float equality does; group keys
// keep raw bits, where ±0 forming two groups is the established behavior.
func (r *Runner) hashAndNormalize(b *batch, keys []keyDesc, nKW int, canonFloat bool) (vec, error) {
	hv := r.newVec()
	for i, d := range keys {
		first := uint64(0)
		if i == 0 {
			first = 1
		}
		if d.char {
			cb, ok := r.leafChar(b, d.expr)
			if !ok {
				return vec{}, fmt.Errorf("vectorized: char key %s not available", d.expr)
			}
			r.call("hash_char", uint64(b.sel), uint64(b.selN), uint64(cb.addr), uint64(cb.width),
				uint64(cb.start), uint64(hv.addr), first)
			r.call("kw_char", uint64(b.sel), uint64(b.selN), uint64(cb.addr), uint64(cb.width),
				uint64(cb.start), uint64(r.kwArea), uint64(nKW), uint64(d.byteOff), uint64(d.words*8))
		} else {
			v, err := r.evalVec(b, d.expr)
			if err != nil {
				return vec{}, err
			}
			if canonFloat && d.expr.Type().Kind == types.Float64 {
				cv := r.newVec()
				r.call("canon_f64", uint64(b.sel), uint64(b.selN), uint64(v.addr), uint64(cv.addr))
				v = cv
			}
			r.call("hash_word", uint64(b.sel), uint64(b.selN), uint64(v.addr), uint64(hv.addr), first)
			r.call("kw_word", uint64(b.sel), uint64(b.selN), uint64(v.addr), uint64(r.kwArea),
				uint64(nKW), uint64(d.byteOff/8))
		}
	}
	return hv, nil
}

// initCtrl writes a hash-table control block.
func (r *Runner) initCtrl(ctrl uint32, initialCap, esize, nkw, npw int) {
	base := r.guestAlloc(uint32(initialCap * esize))
	r.mem.PutU32(ctrl+htOffBase, base)
	r.mem.PutU32(ctrl+htOffMask, uint32(initialCap-1))
	r.mem.PutU32(ctrl+htOffCount, 0)
	r.mem.PutU32(ctrl+htOffESize, uint32(esize))
	r.mem.PutU32(ctrl+htOffNKW, uint32(nkw))
	r.mem.PutU32(ctrl+htOffNPW, uint32(npw))
}

// ---------------------------------------------------------------------------
// Grouping & aggregation.

func (r *Runner) execGroup(g *plan.Group, emit func(*batch) error) error {
	if len(g.Keys) == 0 {
		return r.execGlobalAgg(g, emit)
	}
	keys, nKW := describeKeys(g.Keys)
	nAggs := len(g.Aggs)
	esize := entryOffKeys + (nKW+nAggs)*8
	slotOff := func(i int) int { return entryOffKeys + nKW*8 + i*8 }
	ctrl := r.allocCtrl()
	r.initCtrl(ctrl, 1024, esize, nKW, nAggs)

	ptrs := vec{addr: r.vecPool + uint32(r.vecPoolN-1)*BatchSize*8}
	r.vecPoolN-- // reserve the last pool slot across batches

	err := r.exec(g.Input, func(b *batch) error {
		hv, err := r.hashAndNormalize(b, keys, nKW, false)
		if err != nil {
			return err
		}
		// Aggregate argument vectors (computed once per batch).
		argVecs := make([]vec, nAggs)
		for i, a := range g.Aggs {
			if a.Arg == nil {
				continue
			}
			v, err := r.evalVec(b, a.Arg)
			if err != nil {
				return err
			}
			argVecs[i] = v
		}
		nNew := int(int32(r.call("group_locate", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
			uint64(r.kwArea), uint64(ctrl), uint64(ptrs.addr), uint64(r.newSel))))
		// Seed MIN/MAX states of fresh groups, then fold the whole batch.
		for i, a := range g.Aggs {
			if (a.Func == sema.AggMin || a.Func == sema.AggMax) && nNew > 0 {
				r.call("agg_seed", uint64(r.newSel), uint64(nNew), uint64(ptrs.addr),
					uint64(argVecs[i].addr), uint64(slotOff(i)))
			}
		}
		for i, a := range g.Aggs {
			off := uint64(slotOff(i))
			switch a.Func {
			case sema.AggCountStar, sema.AggCount:
				r.call("agg_count", uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), off)
			case sema.AggSum:
				name := "agg_sum_i64"
				if a.T.Kind == types.Float64 {
					name = "agg_sum_f64"
				}
				r.call(name, uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), uint64(argVecs[i].addr), off)
			case sema.AggMin, sema.AggMax:
				name := "agg_min_i64"
				if a.Func == sema.AggMax {
					name = "agg_max_i64"
				}
				if a.T.Kind == types.Float64 {
					name = "agg_min_f64"
					if a.Func == sema.AggMax {
						name = "agg_max_f64"
					}
				}
				r.call(name, uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), uint64(argVecs[i].addr), off)
			}
		}
		return nil
	})
	r.vecPoolN++
	if err != nil {
		return err
	}

	// Scan the table in batches.
	slot := 0
	for {
		r.resetScratch()
		outPtrs := r.newVec()
		packed := r.call("ht_scan", uint64(ctrl), uint64(slot), BatchSize, uint64(outPtrs.addr))
		nOut := int(packed >> 32)
		slot = int(uint32(packed))
		if nOut == 0 {
			break
		}
		b := &batch{n: nOut, sel: r.selA, start: -1,
			vecs: map[string]vec{}, chars: map[string]charBuf{}}
		b.selN = int(int32(r.call("sel_seq", uint64(r.selA), 0, uint64(nOut))))
		for i, d := range keys {
			ref := &sema.KeyRef{Idx: i, T: g.Keys[i].Type()}
			if d.char {
				cb := r.newCharBuf(roundup8(d.width))
				r.call("entry_char", uint64(nOut), uint64(outPtrs.addr),
					uint64(entryOffKeys+d.byteOff), uint64(cb.width), uint64(cb.addr))
				b.chars[leafKey(ref)] = cb
			} else {
				v := r.newVec()
				r.call("entry_word", uint64(nOut), uint64(outPtrs.addr),
					uint64(entryOffKeys+d.byteOff), uint64(v.addr))
				b.vecs[leafKey(ref)] = v
			}
		}
		for i, a := range g.Aggs {
			ref := &sema.AggRef{Idx: i, T: a.T}
			v := r.newVec()
			r.call("entry_word", uint64(nOut), uint64(outPtrs.addr), uint64(slotOff(i)), uint64(v.addr))
			b.vecs[leafKey(ref)] = v
		}
		// HAVING filters finished groups; the batch binds KeyRef/AggRef
		// leaves so applyPred resolves them like any other predicate.
		for _, h := range g.Having {
			if err := r.applyPred(b, h); err != nil {
				return err
			}
		}
		if b.selN == 0 {
			continue
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// execGlobalAgg aggregates a single group into one pre-allocated state
// entry — no hash table, no locate call per row ("simple aggregation").
func (r *Runner) execGlobalAgg(g *plan.Group, emit func(*batch) error) error {
	nAggs := len(g.Aggs)
	entry := r.guestAlloc(uint32(entryOffKeys + nAggs*8))
	slotOff := func(i int) int { return entryOffKeys + i*8 }

	ptrs := vec{addr: r.vecPool + uint32(r.vecPoolN-1)*BatchSize*8}
	r.vecPoolN--
	defer func() { r.vecPoolN++ }()

	seeded := false
	err := r.exec(g.Input, func(b *batch) error {
		if b.selN == 0 {
			return nil
		}
		// All rows share the one state entry.
		r.call("fill", uint64(b.sel), uint64(b.selN), uint64(entry), uint64(ptrs.addr))
		argVecs := make([]vec, nAggs)
		for i, a := range g.Aggs {
			if a.Arg == nil {
				continue
			}
			v, err := r.evalVec(b, a.Arg)
			if err != nil {
				return err
			}
			argVecs[i] = v
		}
		if !seeded {
			seeded = true
			// Seed MIN/MAX with the batch's first selected row.
			first := r.mem.U32(b.sel)
			r.mem.PutU32(r.newSel, first)
			for i, a := range g.Aggs {
				if a.Func == sema.AggMin || a.Func == sema.AggMax {
					r.call("agg_seed", uint64(r.newSel), 1, uint64(ptrs.addr),
						uint64(argVecs[i].addr), uint64(slotOff(i)))
				}
			}
		}
		for i, a := range g.Aggs {
			off := uint64(slotOff(i))
			switch a.Func {
			case sema.AggCountStar, sema.AggCount:
				r.call("agg_count", uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), off)
			case sema.AggSum:
				name := "agg_sum_i64"
				if a.T.Kind == types.Float64 {
					name = "agg_sum_f64"
				}
				r.call(name, uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), uint64(argVecs[i].addr), off)
			case sema.AggMin, sema.AggMax:
				name := "agg_min_i64"
				if a.Func == sema.AggMax {
					name = "agg_max_i64"
				}
				if a.T.Kind == types.Float64 {
					name = "agg_min_f64"
					if a.Func == sema.AggMax {
						name = "agg_max_f64"
					}
				}
				r.call(name, uint64(b.sel), uint64(b.selN), uint64(ptrs.addr), uint64(argVecs[i].addr), off)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// On empty input the zero-filled state entry is the zero group: it flows
	// through HAVING and the output expressions like any other, so AVG is
	// 0/0 = NaN exactly as in the compiled engine.
	r.resetScratch()
	b := &batch{n: 1, sel: r.selA, start: -1, vecs: map[string]vec{}, chars: map[string]charBuf{}}
	b.selN = int(int32(r.call("sel_seq", uint64(r.selA), 0, 1)))
	outPtrs := r.newVec()
	r.mem.PutU64(outPtrs.addr, uint64(entry))
	for i, a := range g.Aggs {
		ref := &sema.AggRef{Idx: i, T: a.T}
		v := r.newVec()
		r.call("entry_word", 1, uint64(outPtrs.addr), uint64(slotOff(i)), uint64(v.addr))
		b.vecs[leafKey(ref)] = v
	}
	for _, h := range g.Having {
		if err := r.applyPred(b, h); err != nil {
			return err
		}
	}
	if b.selN == 0 {
		return nil
	}
	return emit(b)
}

// ---------------------------------------------------------------------------
// Hash join.

func (r *Runner) execJoin(j *plan.HashJoin, emit func(*batch) error) error {
	keys, _ := describeKeys(j.BuildKeys)
	probeKeys, _ := describeKeys(j.ProbeKeys)
	nKW := alignKeys(keys, probeKeys)
	// Payload: every referenced column of the build side.
	buildTables := j.Build.Tables()
	var payload []keyDesc
	used := map[[2]int]bool{}
	collectColumns(r.q, used)
	pOff := 0
	for ti := range r.q.Tables {
		if !buildTables[ti] {
			continue
		}
		tbl := r.q.Tables[ti].Table
		for ci, col := range tbl.Columns {
			if !used[[2]int{ti, ci}] {
				continue
			}
			d := keyDesc{
				expr:    &sema.ColRef{Table: ti, Col: ci, T: col.Type, Name: col.Name},
				byteOff: pOff,
			}
			if col.Type.Kind == types.Char {
				d.char = true
				d.width = col.Type.Length
				d.words = roundup8(d.width) / 8
			} else {
				d.words = 1
			}
			pOff += d.words * 8
			payload = append(payload, d)
		}
	}
	nPW := pOff / 8
	esize := entryOffKeys + (nKW+nPW)*8
	payloadBase := entryOffKeys + nKW*8
	ctrl := r.allocCtrl()
	r.initCtrl(ctrl, 1024, esize, nKW, nPW)

	ptrs := vec{addr: r.vecPool + uint32(r.vecPoolN-1)*BatchSize*8}
	r.vecPoolN--

	err := r.exec(j.Build, func(b *batch) error {
		// A NaN key can never satisfy the probe's float equality — filter
		// those rows out before insertion (in-place sel compaction is safe:
		// the write index never passes the read index).
		for _, d := range keys {
			if d.char || d.expr.Type().Kind != types.Float64 {
				continue
			}
			v, err := r.evalVec(b, d.expr)
			if err != nil {
				return err
			}
			b.selN = int(int32(r.call("sel_nonnan_f64", uint64(b.sel), uint64(b.selN),
				uint64(v.addr), uint64(b.sel))))
		}
		hv, err := r.hashAndNormalize(b, keys, nKW, true)
		if err != nil {
			return err
		}
		r.call("join_insert", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
			uint64(r.kwArea), uint64(ctrl), uint64(ptrs.addr))
		for _, d := range payload {
			off := uint64(payloadBase + d.byteOff)
			if d.char {
				cb, ok := r.leafChar(b, d.expr)
				if !ok {
					return fmt.Errorf("vectorized: build payload %s not available", d.expr)
				}
				r.call("store_entry_char", uint64(b.sel), uint64(b.selN), uint64(ptrs.addr),
					uint64(cb.addr), uint64(cb.width), uint64(cb.start), off, uint64(d.words*8))
			} else {
				v, err := r.evalVec(b, d.expr)
				if err != nil {
					return err
				}
				r.call("store_entry_word", uint64(b.sel), uint64(b.selN), uint64(ptrs.addr),
					uint64(v.addr), off)
			}
		}
		return nil
	})
	r.vecPoolN++
	if err != nil {
		return err
	}

	// Probe side: leaves needed downstream from the probe side.
	var probeLeaves []keyDesc
	{
		probeTables := j.Probe.Tables()
		for ti := range r.q.Tables {
			if !probeTables[ti] {
				continue
			}
			tbl := r.q.Tables[ti].Table
			for ci, col := range tbl.Columns {
				if !used[[2]int{ti, ci}] {
					continue
				}
				d := keyDesc{expr: &sema.ColRef{Table: ti, Col: ci, T: col.Type, Name: col.Name}}
				if col.Type.Kind == types.Char {
					d.char = true
					d.width = col.Type.Length
				}
				probeLeaves = append(probeLeaves, d)
			}
		}
	}

	return r.exec(j.Probe, func(b *batch) error {
		hv, err := r.hashAndNormalize(b, probeKeys, nKW, true)
		if err != nil {
			return err
		}
		// Resumable probe loop with a bounded match buffer.
		r.mem.PutU32(r.probeState, 0)
		r.mem.PutU32(r.probeState+4, ^uint32(0))
		for {
			outPtrs := r.newVec()
			packed := r.call("join_probe", uint64(b.sel), uint64(b.selN), uint64(hv.addr),
				uint64(r.kwArea), uint64(ctrl), uint64(r.probeState),
				uint64(r.outRowSel), uint64(outPtrs.addr), BatchSize)
			nOut := int(packed >> 32)
			done := packed&1 != 0
			if nOut > 0 {
				ob := &batch{n: nOut, sel: r.selB, start: -1,
					vecs: map[string]vec{}, chars: map[string]charBuf{}}
				ob.selN = int(int32(r.call("sel_seq", uint64(r.selB), 0, uint64(nOut))))
				// Build-side fields from entries.
				for _, d := range payload {
					off := uint64(payloadBase + d.byteOff)
					if d.char {
						cb := r.newCharBuf(roundup8(d.width))
						r.call("entry_char", uint64(nOut), uint64(outPtrs.addr), off,
							uint64(cb.width), uint64(cb.addr))
						ob.chars[leafKey(d.expr)] = cb
					} else {
						v := r.newVec()
						r.call("entry_word", uint64(nOut), uint64(outPtrs.addr), off, uint64(v.addr))
						ob.vecs[leafKey(d.expr)] = v
					}
				}
				// Probe-side fields gathered through the match row list.
				for _, d := range probeLeaves {
					if d.char {
						cb, ok := r.leafChar(b, d.expr)
						if !ok {
							return fmt.Errorf("vectorized: probe leaf %s missing", d.expr)
						}
						out := r.newCharBuf(cb.width)
						r.call("compact_gather_char", uint64(r.outRowSel), uint64(nOut),
							uint64(cb.addr), uint64(cb.width), uint64(cb.start), uint64(out.addr))
						ob.chars[leafKey(d.expr)] = out
					} else if v, ok := r.leafVec(b, d.expr); ok {
						out := r.newVec()
						r.call("compact_gather", uint64(r.outRowSel), uint64(nOut),
							uint64(v.addr), uint64(out.addr))
						ob.vecs[leafKey(d.expr)] = out
					} else if cr, ok := d.expr.(*sema.ColRef); ok && b.start >= 0 {
						base := r.colBase[[2]int{cr.Table, cr.Col}]
						elem, _ := elemOf(cr.T)
						out := r.newVec()
						r.call("compact_gather_"+elemNames[elem], uint64(r.outRowSel), uint64(nOut),
							uint64(base), uint64(b.start), uint64(out.addr))
						ob.vecs[leafKey(d.expr)] = out
					} else {
						return fmt.Errorf("vectorized: probe leaf %s missing", d.expr)
					}
				}
				// Residual predicates refine the joined batch.
				for _, res := range j.Residual {
					if err := r.applyPred(ob, res); err != nil {
						return err
					}
				}
				if ob.selN > 0 {
					if err := emit(ob); err != nil {
						return err
					}
				}
			}
			if done {
				return nil
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Sort.

func (r *Runner) execSort(s *plan.Sort, emit func(*batch) error) error {
	// Key bytes first (order-preserving encodings), then payload fields.
	type skey struct {
		keyDesc
		desc bool
		f64  bool
	}
	var skeys []skey
	keyLen := 0
	for _, k := range s.Keys {
		d := skey{desc: k.Desc}
		d.expr = k.Expr
		d.byteOff = keyLen
		if k.Expr.Type().Kind == types.Char {
			d.char = true
			d.width = k.Expr.Type().Length
			keyLen += roundup8(d.width)
		} else {
			d.f64 = k.Expr.Type().Kind == types.Float64
			keyLen += 8
		}
		skeys = append(skeys, d)
	}
	// Payload: the distinct leaves of the output expressions.
	var leaves []sema.Expr
	seen := map[string]bool{}
	for _, oc := range r.q.Select {
		for _, l := range exprLeaves(oc.Expr) {
			if !seen[leafKey(l)] {
				seen[leafKey(l)] = true
				leaves = append(leaves, l)
			}
		}
	}
	var payload []keyDesc
	pOff := keyLen
	for _, l := range leaves {
		d := keyDesc{expr: l, byteOff: pOff}
		if l.Type().Kind == types.Char {
			d.char = true
			d.width = l.Type().Length
			pOff += roundup8(d.width)
		} else {
			pOff += 8
		}
		payload = append(payload, d)
	}
	stride := roundup8(pOff)

	ctrl := r.allocCtrl()
	base := r.guestAlloc(uint32(1024 * stride))
	r.mem.PutU32(ctrl+arrOffBase, base)
	r.mem.PutU32(ctrl+arrOffCount, 0)
	r.mem.PutU32(ctrl+arrOffCap, 1024)
	r.mem.PutU32(ctrl+arrOffStride, uint32(stride))

	err := r.exec(s.Input, func(b *batch) error {
		startIdx := uint32(r.call("arr_reserve", uint64(ctrl), uint64(b.selN)))
		arrBase := r.mem.U32(ctrl + arrOffBase)
		for _, d := range skeys {
			desc := uint64(0)
			if d.desc {
				desc = 1
			}
			if d.char {
				cb, ok := r.leafChar(b, d.expr)
				if !ok {
					return fmt.Errorf("vectorized: sort key %s not available", d.expr)
				}
				r.call("sk_encode_char", uint64(b.sel), uint64(b.selN), uint64(cb.addr),
					uint64(cb.width), uint64(cb.start), uint64(arrBase), uint64(stride),
					uint64(d.byteOff), uint64(roundup8(d.width)), uint64(startIdx), desc)
			} else {
				v, err := r.evalVec(b, d.expr)
				if err != nil {
					return err
				}
				name := "sk_encode_i64"
				if d.f64 {
					name = "sk_encode_f64"
				}
				r.call(name, uint64(b.sel), uint64(b.selN), uint64(v.addr), uint64(arrBase),
					uint64(stride), uint64(d.byteOff), uint64(startIdx), desc)
			}
		}
		for _, d := range payload {
			if d.char {
				cb, ok := r.leafChar(b, d.expr)
				if !ok {
					return fmt.Errorf("vectorized: sort payload %s not available", d.expr)
				}
				r.call("arr_store_char", uint64(b.sel), uint64(b.selN), uint64(cb.addr),
					uint64(cb.width), uint64(cb.start), uint64(arrBase), uint64(stride),
					uint64(d.byteOff), uint64(startIdx))
			} else {
				v, err := r.evalVec(b, d.expr)
				if err != nil {
					return err
				}
				r.call("arr_store_word", uint64(b.sel), uint64(b.selN), uint64(v.addr),
					uint64(arrBase), uint64(stride), uint64(d.byteOff), uint64(startIdx))
			}
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
		n := count - startRow
		if n > BatchSize {
			n = BatchSize
		}
		b := &batch{n: n, sel: r.selA, start: -1, vecs: map[string]vec{}, chars: map[string]charBuf{}}
		b.selN = int(int32(r.call("sel_seq", uint64(r.selA), 0, uint64(n))))
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
