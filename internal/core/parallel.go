package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
)

// Intra-query parallelism (morsel-driven, Leis et al. adapted to the paper's
// host-driven design): a pool of workers, each owning a private rt instance
// and linear memory instantiated from the *shared* compiled Module, pulls
// morsels off one atomic counter — work stealing by construction, and
// background TurboFan tier-up benefits every worker at once because the
// published code objects are shared at function granularity.
//
// Where the workers' private state has to become one is not worked out here:
// the code generator declares a Barrier on the pipeline that needs one, at the
// point where it emitted the operator (CompiledQuery.Barriers), and names the
// one reason a module can never be spread over a pool
// (CompiledQuery.SerialReason). The executor drives a pipeline, then runs its
// barriers — with one worker as with many:
//
//	join build    every worker's tuple chunks are aliased into every other
//	              worker's memory (rewiring, no copy) and each worker builds
//	              its own directory over all of them
//	fold          the secondaries' partial aggregation state — a group table's
//	              entries, or the globals of a keyless aggregation — is handed,
//	              uninterpreted and in worker order, to the primary's generated
//	              merge export; the fold rule exists only in the module
//	sorted runs   every worker sorts its own tuple array; the runs are
//	              gathered onto the primary in worker order and its generated
//	              merge export combines adjacent pairs until one run is left
//
// The host moves bytes and interprets none: it knows no aggregate function,
// no key type and no order.
//
// Result rows need no barrier: per-worker buffers are concatenated in worker
// order. Whatever runs serially although a pool was asked for is recorded in
// ExecStats.SerialFallback and an EvSerialFallback trace event — never silent.

// Serial-fallback reasons.
const (
	fallbackChunked     = "chunked-rewiring"
	fallbackFuel        = "fuel-budget"
	fallbackLimit       = "limit"
	fallbackFloatSum    = "float-sum-order"
	fallbackUnmergeable = "unmergeable-pipeline-state"
	fallbackSlots       = "worker-slots-exhausted"
)

// fallbackTable is the serial-fallback matrix (DESIGN.md §9 is generated from
// it), in the order the executor checks it. intrinsic marks reasons that are
// properties of the query shape and recur on every execution of the same
// fingerprint. perCall tests a reason that depends on this execution's
// options; a row without one is either decided when the module was generated
// (CompiledQuery.SerialReason) or, for the last row, by the scheduler's lease.
var fallbackTable = []struct {
	name      string
	intrinsic bool
	cause     string
	perCall   func(x *executor) bool
}{
	{fallbackChunked, false,
		"the chunk window position is per-memory state the shared dispatch counter cannot coordinate",
		func(x *executor) bool { return x.opt.ChunkRows > 0 }},
	{fallbackFuel, false,
		"a user fuel budget is one sequential account; splitting it changes which morsel exhausts it",
		func(x *executor) bool { return x.opt.Fuel > 0 }},
	{fallbackLimit, true,
		"LIMIT without a sorted-run barrier picks whichever rows arrive first; serial keeps the choice deterministic (under ORDER BY the merge fixes the order, and ties resolve as they do in the equally unstable serial quicksort)",
		func(x *executor) bool { return x.limit >= 0 && !x.cq.sorted() }},
	{fallbackFloatSum, true,
		"float addition is not associative; folded partial sums (keyless or grouped) could differ from the row-order sum in the last ulps and break the bit-identical differential oracle",
		nil},
	{fallbackUnmergeable, true,
		"a table scan fills state for which the module declares no barrier: library-style hash tables, whose entries no other worker sees",
		nil},
	{fallbackSlots, false,
		"the shared scheduler (§12) had no free worker slots; running serially now beats queueing for parallelism later, and the global pool stays bounded under concurrency",
		nil},
}

// FallbackIntrinsic reports whether a serial-fallback reason (from
// ExecStats.SerialFallback or the trace) is intrinsic to the query shape —
// it would recur on every execution of the same fingerprint — as opposed to
// transient pressure (scheduler slot exhaustion, a caller's fuel budget)
// or per-call options (chunked rewiring). The autopilot stores this with
// its execution feedback: a shape that fell back intrinsically stops being
// granted workers on warm decisions, while a transiently starved one may
// try again.
func FallbackIntrinsic(reason string) bool {
	for _, r := range fallbackTable {
		if r.name == reason {
			return r.intrinsic
		}
	}
	return false
}

// serialReason returns the first reason of the table that keeps this
// execution off a worker pool, or "".
func (x *executor) serialReason() string {
	for _, r := range fallbackTable {
		if r.name == x.cq.SerialReason || r.perCall != nil && r.perCall(x) {
			return r.name
		}
	}
	return x.cq.SerialReason // a reason the table lacks still means serial
}

// sorted reports whether a sorted-run barrier orders the rows before a LIMIT
// applies.
func (cq *CompiledQuery) sorted() bool {
	return slices.ContainsFunc(cq.Barriers, func(b Barrier) bool { return b.Sort != nil })
}

// poolDriven reports whether pipeline pi runs on every worker: a table scan's
// morsels are spread over the pool, and a sort call carrying a sorted-run
// barrier sorts each worker's own array. Every other pipeline reads state the
// barriers left on the primary.
func (cq *CompiledQuery) poolDriven(pi int) bool {
	return cq.Pipelines[pi].Kind == PipeScanTable ||
		slices.ContainsFunc(cq.Barriers, func(b Barrier) bool { return b.Sort != nil && b.Pipeline == pi })
}

// runBarriers runs the barriers declared on pipeline pi and returns what they
// add to the pipeline's span. An error leaves the query failed, never
// partially merged.
func (x *executor) runBarriers(pi int) ([]obs.Arg, error) {
	var args []obs.Arg
	for _, b := range x.cq.Barriers {
		if b.Pipeline != pi {
			continue
		}
		var err error
		switch {
		case b.Join != nil:
			var built []obs.Arg
			built, err = x.buildJoin(b.Join)
			args = append(args, built...)
		case b.Fold != nil:
			err = x.fold(b.Fold)
		case b.Sort != nil:
			err = x.mergeRuns(b.Sort)
		}
		if err != nil {
			return nil, err
		}
	}
	return args, nil
}

// fold hands every secondary worker's partial aggregation state to the
// primary's merge export, in worker order. The host moves the state and
// interprets none of it: a group table's entries arrive in the primary's
// table by the same probe-or-claim code as rows do, and the fold rule and key
// equality exist only in the module. Group records are driven through the
// morsel loop like any pipeline, so tracing, cancellation and fault injection
// cover the merge.
func (x *executor) fold(fm *FoldMerge) error {
	if len(x.ws) == 1 {
		return nil
	}
	primary := x.ws[0]
	if fm.Globals != nil {
		args := make([]uint64, len(fm.Globals))
		for _, w := range x.ws[1:] {
			for i, g := range fm.Globals {
				args[i] = w.inst.Global(int(g))
			}
			if err := x.barrierCall(primary, fm.MergeExport, args...); err != nil {
				return err
			}
		}
		return nil
	}

	sp := x.tr.Begin(obs.SpanMerge)
	_, records, err := x.gather(x.ws[1:], fm.RecvExport, fm.CountGlobal, fm.Stride, 0, func(w *worker) (uint32, error) {
		r, err := x.call(w, fm.DumpExport)
		if err != nil {
			return 0, err
		}
		return uint32(r[0]), nil
	})
	if err != nil {
		return err
	}
	if records > 0 {
		if _, err := x.drive(x.ws[:1], fm.MergeExport, int(records)); err != nil {
			return err
		}
	}
	x.stats.GroupsMerged = int(records)
	x.tr.Event(obs.EvGroupMerge, obs.I("groups", int64(records)), obs.I("workers", int64(len(x.ws))))
	sp.End(obs.I("groups", int64(records)))
	return nil
}

// mergeRuns merges the workers' sorted tuple runs into the primary's array.
// The non-empty runs are gathered onto the primary in worker order, into the
// two halves q_sort_recv allocates, and the module's merge export combines
// adjacent pairs, pass after pass, between the halves. The gather starts in
// the half that leaves the last pass's output where the sort array points.
// A merge takes the left run's tuple on ties, so ties leave in worker order.
// When only the primary holds tuples — serial execution, or a sort fed by
// state a fold barrier already brought to the primary — its run is the result.
func (x *executor) mergeRuns(sm *SortMerge) error {
	primary := x.ws[0]
	bounds := []uint32{0} // run boundaries once gathered, in tuples
	for _, w := range x.ws {
		if n := uint32(w.inst.Global(int(sm.CountGlobal))); n > 0 {
			bounds = append(bounds, bounds[len(bounds)-1]+n)
		}
	}
	total := bounds[len(bounds)-1]
	if total == uint32(primary.inst.Global(int(sm.CountGlobal))) {
		return nil
	}
	sp := x.tr.Begin(obs.SpanMerge)
	src, dst := uint32(0), total*sm.Stride
	if bits.Len(uint(len(bounds)-2))%2 == 1 { // ⌈log₂ runs⌉ passes
		src, dst = dst, src
	}
	base, _, err := x.gather(x.ws, sm.RecvExport, sm.CountGlobal, sm.Stride, src, func(w *worker) (uint32, error) {
		return uint32(w.inst.Global(int(sm.BaseGlobal))), nil
	})
	if err != nil {
		return err
	}
	at := func(region, tuple uint32) uint64 { return uint64(base + region + tuple*sm.Stride) }
	for ; len(bounds) > 2; src, dst = dst, src {
		next := []uint32{0}
		for i := 1; i < len(bounds); i += 2 { // a last run without a partner is copied
			lo, mid, hi := bounds[i-1], bounds[i], bounds[min(i+1, len(bounds)-1)]
			if err := x.barrierCall(primary, sm.MergeExport, at(src, lo), at(src, mid), at(src, hi), at(dst, lo)); err != nil {
				return err
			}
			next = append(next, hi)
		}
		bounds = next
	}
	x.tr.Event(obs.EvSortMerge, obs.I("tuples", int64(total)), obs.I("workers", int64(len(x.ws))))
	sp.End(obs.I("tuples", int64(total)))
	return nil
}

// gather copies every worker's records — as many as its count global holds,
// stride bytes each, at the address addr returns — onto the primary in worker
// order, skip bytes into the region recv allocates there for the total. It
// returns the region and the total; no records allocate nothing.
func (x *executor) gather(ws []*worker, recv string, countGlobal, stride, skip uint32,
	addr func(*worker) (uint32, error)) (base, total uint32, err error) {
	runs := make([][]byte, 0, len(ws))
	for _, w := range ws {
		if err := x.canceled(); err != nil {
			return 0, 0, err
		}
		a, err := addr(w)
		if err != nil {
			return 0, 0, err
		}
		n := uint32(w.inst.Global(int(countGlobal)))
		runs = append(runs, w.mem.ReadBytes(a, n*stride))
		total += n
	}
	if total == 0 {
		return 0, 0, nil
	}
	r, err := x.call(x.ws[0], recv, uint64(total))
	if err != nil {
		return 0, 0, err
	}
	base = uint32(r[0])
	for _, run := range runs {
		x.ws[0].mem.WriteBytes(base+skip, run)
		skip += uint32(len(run))
	}
	return base, total, nil
}

// barrierCall makes one merge call of a barrier on w, behind the
// cancellation check and the core-morsel fault point.
func (x *executor) barrierCall(w *worker, export string, args ...uint64) error {
	if err := x.canceled(); err != nil {
		return err
	}
	if err := faultpoint.Hit("core-morsel"); err != nil {
		return fmt.Errorf("core: %s: %w", export, err)
	}
	_, err := x.call(w, export, args...)
	return err
}

// buildJoin is the build barrier of one join table (see joinbuild.go), the
// same code serially and in parallel: count the tuples in every worker's
// chunk list, have each worker reserve a directory of that size, alias every
// other worker's chunks into the region reserve returned, and let the workers
// place all tuples concurrently — one finish call per chunk through
// callMorsel, in worker order and build-scan order within a worker on every
// worker alike. A worker that yielded its slot never runs again and builds no
// directory; its chunks are shared like everyone's. Returns the figures for
// the build pipeline's span.
func (x *executor) buildJoin(jm *JoinMerge) ([]obs.Arg, error) {
	ws := x.ws
	sp := x.tr.Begin(obs.SpanMerge)
	tAlias := time.Now()
	type run struct{ addr, n uint32 } // first tuple, tuples
	chunks := make([][]run, len(ws))
	total, nChunks := uint32(0), 0
	for wi, w := range ws {
		head := uint32(w.inst.Global(int(jm.HeadGlobal)))
		n := (uint32(w.inst.Global(int(jm.PosGlobal))) - head - joinChunkHdr) / jm.Stride
		for c := head; c != 0; c = w.mem.U32(c) {
			chunks[wi] = append(chunks[wi], run{c + joinChunkHdr, n})
			total += n
			n = jm.ChunkCap
		}
		slices.Reverse(chunks[wi])
		nChunks += len(chunks[wi])
	}
	todo := make([][]run, len(ws))
	aliased := 0
	for wi, w := range ws {
		if x.lease.ShouldYield(w.id) {
			continue
		}
		foreign := uint32(nChunks-len(chunks[wi])) * jm.ChunkPages
		r, err := x.call(w, jm.ReserveExport, uint64(total), uint64(foreign))
		if err != nil {
			return nil, err
		}
		region := uint32(r[0])
		todo[wi] = make([]run, 0, nChunks)
		for vi, v := range ws {
			for _, c := range chunks[vi] {
				if vi != wi {
					if err := w.mem.Alias(region, v.mem, c.addr-joinChunkHdr, jm.ChunkPages); err != nil {
						return nil, fmt.Errorf("core: rewiring join chunks: %w", err)
					}
					c.addr = region + joinChunkHdr
					region += jm.ChunkPages * wmem.PageSize
				}
				todo[wi] = append(todo[wi], c)
			}
		}
		aliased += int(foreign)
	}
	if len(ws) > 1 {
		if err := faultpoint.Hit("core-rewire"); err != nil {
			return nil, fmt.Errorf("core: rewiring join chunks: %w", err)
		}
	}
	finish, err := x.funcIndex(jm.FinishExport)
	if err != nil {
		return nil, err
	}
	tFinish := time.Now()
	err = x.each(ws, func(w *worker) error {
		for _, c := range todo[w.id] {
			if err := x.canceled(); err != nil {
				return err
			}
			if _, err := x.callMorsel(w, finish, jm.FinishExport, int(c.addr), int(c.n)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	x.stats.JoinPartitionsMerged += len(ws) - 1
	args := []obs.Arg{obs.I("tuples", int64(total)), obs.I("chunks", int64(nChunks)),
		obs.I("pages_aliased", int64(aliased)),
		obs.I("slots", int64(uint32(ws[0].inst.Global(int(jm.MaskGlobal))))+1),
		obs.I("alias_ns", tFinish.Sub(tAlias).Nanoseconds()), obs.I("finish_ns", time.Since(tFinish).Nanoseconds())}
	x.tr.Event(obs.EvJoinMerge, append(args, obs.I("workers", int64(len(ws))))...)
	sp.End(obs.I("tuples", int64(total)))
	return args, nil
}
