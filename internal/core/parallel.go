package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

// Intra-query parallelism (morsel-driven, Leis et al. adapted to the paper's
// host-driven design): a pool of workers, each owning a private rt instance
// and linear memory instantiated from the *shared* compiled Module, pulls
// morsels off one atomic counter — work stealing by construction, and
// background TurboFan tier-up benefits every worker at once because the
// published code objects are shared at function granularity.
//
// Only pipelines whose state the host can combine afterwards are eligible:
//
//	scan/filter/project   → per-worker result buffers, merged by concatenation
//	keyless aggregation   → per-worker partial states in module globals,
//	                        merged with the aggregate's combine rule
//	grouped aggregation   → per-worker partial group hash tables, drained via
//	                        the module's ad-hoc merge exports, folded per key
//	                        host-side, and fed into the primary worker
//	order by              → per-worker sorted runs, k-way merged host-side
//	                        and installed on the primary worker
//	hash-join builds      → per-worker lists of tuple chunks; at the build
//	                        barrier every worker's chunks are aliased into
//	                        every other worker's memory (rewiring, no copy)
//	                        and each worker builds its own directory over
//	                        all of them — the barrier serial execution runs
//	                        with one worker (Execute's buildJoin)
//
// Pipelines whose state the host cannot combine (library-style hash tables
// and sorts) fall back to serial execution; the fallback is recorded in
// ExecStats.PipelinesSerial, ExecStats.SerialFallback, and an
// EvSerialFallback trace event — observable, never silent.

// parMode is the parallel execution strategy chosen for a query.
type parMode int

const (
	// parNone drives every pipeline serially on one worker.
	parNone parMode = iota
	// parScan parallelizes a single scan/filter/project pipeline; workers
	// flush into private result buffers and the merge concatenates them.
	parScan
	// parAgg parallelizes the scan feeding a keyless aggregation; workers
	// accumulate private partial states and the merge combines them before
	// the run-once output pipeline executes on the primary worker.
	parAgg
	// parGroup parallelizes the scan feeding a grouped aggregation; workers
	// build private group hash tables and the barrier drains, folds, and
	// feeds the partial groups into the primary worker, which then runs the
	// output pipeline(s) serially.
	parGroup
	// parSort parallelizes the scan feeding an ORDER BY; every worker
	// quicksorts its private tuple array at the barrier and the host k-way
	// merges the sorted runs into the primary worker.
	parSort
	// parJoin parallelizes a join query whose output is plain rows: the
	// build scans run parallel into per-worker tuple chunks (shared by
	// rewiring at each build barrier), the probe scan runs parallel, and
	// the result buffers merge by concatenation. Joins feeding an
	// aggregation or sort classify as parAgg/parGroup/parSort instead — the
	// build barriers fire the same way, the terminal merge differs.
	parJoin
)

// Serial-fallback reasons (the "serial-fallback matrix" of DESIGN.md §9).
const (
	fallbackChunked     = "chunked-rewiring"
	fallbackFuel        = "fuel-budget"
	fallbackLimit       = "limit"
	fallbackFloatSum    = "float-sum-order"
	fallbackFloatKey    = "float-group-key"
	fallbackUnmergeable = "unmergeable-pipeline-state"
	// fallbackSlots reports that the shared global scheduler had no worker
	// slots to grant — the query was parallel-eligible but the pool's fair
	// share under the current inter-query load is serial execution.
	fallbackSlots = "worker-slots-exhausted"
)

// FallbackIntrinsic reports whether a serial-fallback reason (from
// ExecStats.SerialFallback or the trace) is intrinsic to the query shape —
// it would recur on every execution of the same fingerprint — as opposed to
// transient pressure (scheduler slot exhaustion, a caller's fuel budget)
// or per-call options (chunked rewiring). The autopilot stores this with
// its execution feedback: a shape that fell back intrinsically stops being
// granted workers on warm decisions, while a transiently starved one may
// try again.
func FallbackIntrinsic(reason string) bool {
	switch reason {
	case fallbackLimit, fallbackFloatSum, fallbackFloatKey, fallbackUnmergeable:
		return true
	}
	return false
}

// classifyParallel decides whether the compiled query's pipelines can be
// driven by a worker pool of the requested size, and if not, why. The reason
// string is empty when parallel execution applies or when the caller never
// asked for parallelism. limit is the query's *effective* row limit (-1 for
// none), resolved by the executor from the baked constant or the bound
// LimitSlot parameter — a cached module compiled for `LIMIT ?` must be
// classified against the value this execution runs with, not the
// compile-time placeholder.
func classifyParallel(cq *CompiledQuery, opt ExecOptions, workers int, limit int64) (parMode, string) {
	if workers <= 1 {
		return parNone, ""
	}
	if opt.ChunkRows > 0 {
		// Chunked rewiring remaps column windows between morsel batches; the
		// window position is per-memory state the dispatch counter cannot
		// share.
		return parNone, fallbackChunked
	}
	if opt.Fuel > 0 {
		// A user fuel budget is a single sequential account; splitting it
		// across workers would change which morsel exhausts it.
		return parNone, fallbackFuel
	}
	if limit >= 0 && cq.SortMerge == nil {
		// LIMIT without a total order picks whichever rows arrive first;
		// serial execution keeps the choice deterministic. Under an ORDER BY
		// the sorted-run merge fixes the order, so LIMIT rides along (ties
		// beyond the sort keys resolve as the merge encounters them — same
		// contract as serial quicksort, which is also unstable).
		return parNone, fallbackLimit
	}
	ps := cq.Pipelines

	// The last table scan is the pipeline the terminal merge barriers on;
	// every earlier pipeline must be a hash-join build scan with its own
	// build barrier (a JoinMerges entry) or the query cannot run parallel.
	lastScan := -1
	for i, p := range ps {
		if p.Kind == PipeScanTable {
			lastScan = i
		}
	}
	if lastScan < 0 {
		return parNone, fallbackUnmergeable
	}
	barrier := make(map[int]bool, len(cq.JoinMerges))
	for _, jm := range cq.JoinMerges {
		if jm.BuildPipeline < 0 || jm.BuildPipeline >= lastScan {
			// A build fed by something other than a plain table scan before
			// the probe (e.g. nested non-scan input) is not partitionable.
			return parNone, fallbackUnmergeable
		}
		barrier[jm.BuildPipeline] = true
	}
	for i := 0; i < lastScan; i++ {
		if ps[i].Kind != PipeScanTable || !barrier[i] {
			// A pre-probe pipeline without a join build barrier (library-style
			// hash table, or any other host-opaque state) cannot be shared.
			return parNone, fallbackUnmergeable
		}
	}
	tail := ps[lastScan+1:]

	switch {
	case len(tail) == 0 && cq.aggStateSets == 0 && cq.GroupMerge == nil:
		// Plain row output: per-worker result buffers merge by concatenation.
		if len(barrier) > 0 {
			return parJoin, ""
		}
		return parScan, ""
	case len(tail) == 1 && tail[0].Kind == PipeRunOnce &&
		cq.aggStateSets == 1 && len(cq.AggGlobals) > 0:
		for _, ag := range cq.AggGlobals {
			if !mergeableAggFunc(ag.Func) {
				// An aggregate without a combine rule must never reach
				// combineAgg, which panics on unknown functions.
				return parNone, fallbackUnmergeable
			}
			if ag.Func == sema.AggSum && ag.T.Kind == types.Float64 {
				// Float addition is not associative: merging per-worker
				// partial sums could differ from the serial row-order sum in
				// the last ulps, breaking the bit-identical differential
				// oracle. Serial keeps results reproducible.
				return parNone, fallbackFloatSum
			}
		}
		return parAgg, ""
	case cq.GroupMerge != nil && cq.aggStateSets == 0 &&
		len(tail) >= 1 && tail[0].Kind == PipeScanSlots:
		// Single-level GROUP BY fed by the final table scan (directly or
		// through join probes): workers build private partial tables, the
		// barrier merges them into the primary, and every post-barrier
		// pipeline (slot scan, and any sort on top) runs serially on the
		// primary over the merged state.
		gm := cq.GroupMerge
		for _, k := range gm.Keys {
			if k.T.Kind == types.Float64 {
				// The host folds partial groups by raw key bytes; distinct
				// NaN keys compare unequal in the guest (F64Eq) but can be
				// bit-identical, so byte folding would merge groups serial
				// execution keeps apart.
				return parNone, fallbackFloatKey
			}
		}
		for _, a := range gm.Aggs {
			if !mergeableAggFunc(a.Func) {
				return parNone, fallbackUnmergeable
			}
			if a.Func == sema.AggSum && a.T.Kind == types.Float64 {
				return parNone, fallbackFloatSum
			}
		}
		return parGroup, ""
	case cq.SortMerge != nil && cq.GroupMerge == nil && cq.aggStateSets == 0 &&
		len(tail) == 2 && tail[0].Kind == PipeRunOnce && tail[1].Kind == PipeScanArray:
		// ORDER BY over the final scan: every worker sorts its private run
		// at the run-once barrier and the host k-way merges.
		return parSort, ""
	}
	return parNone, fallbackUnmergeable
}

// mergeableAggFunc reports whether the aggregate function has a partial-state
// combine rule — the gate classifyParallel applies before any path that ends
// in combineAgg.
func mergeableAggFunc(fn sema.AggFunc) bool {
	switch fn {
	case sema.AggCountStar, sema.AggCount, sema.AggSum, sema.AggMin, sema.AggMax:
		return true
	}
	return false
}

// mergeAggGlobals folds every worker's partial aggregation state into the
// primary worker (ws[0]) — the host-side merge pass at the pipeline barrier.
// After it returns, the primary's globals hold the combined state and its
// run-once output pipeline produces the same row serial execution would.
func mergeAggGlobals(cq *CompiledQuery, ws []*worker) {
	primary := ws[0]
	var count int64
	for _, w := range ws {
		count += int64(w.inst.Global(int(cq.AggCountGlobal)))
	}
	primary.inst.SetGlobal(int(cq.AggCountGlobal), uint64(count))
	for _, ag := range cq.AggGlobals {
		idx := int(ag.Global)
		acc := primary.inst.Global(idx)
		for _, w := range ws[1:] {
			acc = combineAgg(ag, acc, w.inst.Global(idx))
		}
		primary.inst.SetGlobal(idx, acc)
	}
}

// combineAgg combines two partial aggregate states under the aggregate's
// merge rule. Values use the wasm value representation (i32 states occupy
// the low 32 bits). The rule set is exhaustive over the functions
// mergeableAggFunc admits; reaching the panic means classifyParallel let an
// unknown aggregate through, which would silently drop partial state — fail
// loudly instead.
func combineAgg(ag AggGlobal, a, b uint64) uint64 {
	switch ag.Func {
	case sema.AggCountStar, sema.AggCount:
		return uint64(int64(a) + int64(b))
	case sema.AggSum:
		switch ag.T.Kind {
		case types.Float64:
			return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		case types.Int32, types.Date, types.Bool:
			return uint64(uint32(int32(a) + int32(b)))
		default: // Int64, Decimal
			return uint64(int64(a) + int64(b))
		}
	case sema.AggMin:
		if aggLess(ag.T, a, b) {
			return a
		}
		return b
	case sema.AggMax:
		if aggLess(ag.T, a, b) {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("core: combineAgg: no merge rule for aggregate %v; classifyParallel must reject it", ag.Func))
}

// aggLess orders two aggregate states of type t.
func aggLess(t types.Type, a, b uint64) bool {
	switch t.Kind {
	case types.Int32, types.Date, types.Bool:
		return int32(a) < int32(b)
	case types.Float64:
		return math.Float64frombits(a) < math.Float64frombits(b)
	default: // Int64, Decimal
		return int64(a) < int64(b)
	}
}

// foldGroupRecords folds the drained per-worker partial group records into
// one record list: records sharing a key collapse with combineAgg, distinct
// keys keep first-seen order (Go map iteration order must not leak into the
// merged feed — a fixed drain order gives a fixed output). Each record is a
// verbatim hash-table entry image of gm.Stride bytes. Returns the merged
// records and their count.
func foldGroupRecords(gm *GroupMerge, runs [][]byte) ([]byte, int) {
	stride := int(gm.Stride)
	index := make(map[string]int)
	var out []byte
	for _, run := range runs {
		for off := 0; off+stride <= len(run); off += stride {
			rec := run[off : off+stride]
			key := string(groupKeyBytes(gm, rec))
			at, seen := index[key]
			if !seen {
				index[key] = len(out)
				out = append(out, rec...)
				continue
			}
			dst := out[at : at+stride]
			for _, ma := range gm.Aggs {
				st := combineAgg(AggGlobal{Func: ma.Func, T: ma.T},
					loadAggState(ma.T, dst[ma.Offset:]),
					loadAggState(ma.T, rec[ma.Offset:]))
				storeAggState(ma.T, dst[ma.Offset:], st)
			}
		}
	}
	return out, len(out) / stride
}

// groupKeyBytes concatenates the raw bytes of a record's key fields. CHAR
// keys are stored space-padded at fixed width, so byte equality coincides
// with the guest's padded strcmp equality; Float64 keys never reach here
// (classifyParallel rejects them — NaN bit patterns would alias).
func groupKeyBytes(gm *GroupMerge, rec []byte) []byte {
	key := make([]byte, 0, 16)
	for _, k := range gm.Keys {
		key = append(key, rec[k.Offset:int(k.Offset)+k.T.Size()]...)
	}
	return key
}

// loadAggState reads an aggregate state field in the wasm value
// representation the guest uses (Bool via 8-bit unsigned load, Int32/Date
// via 32-bit load, everything else 64-bit).
func loadAggState(t types.Type, b []byte) uint64 {
	switch t.Kind {
	case types.Bool:
		return uint64(b[0])
	case types.Int32, types.Date:
		return uint64(binary.LittleEndian.Uint32(b))
	default: // Int64, Decimal, Float64
		return binary.LittleEndian.Uint64(b)
	}
}

// storeAggState writes an aggregate state field, inverse of loadAggState.
func storeAggState(t types.Type, b []byte, v uint64) {
	switch t.Kind {
	case types.Bool:
		b[0] = byte(v)
	case types.Int32, types.Date:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// mergeSortedRuns k-way merges per-worker sorted tuple runs. The comparator
// mirrors the generated quicksort's inlined multi-key comparison exactly
// (see genQuicksort's emitLess), so the merged array is ordered precisely as
// a serial sort of the concatenation would be; ties resolve to the lowest
// run index. Worker counts are small, so a linear head scan beats a heap.
func mergeSortedRuns(sm *SortMerge, runs [][]byte) []byte {
	stride := int(sm.Stride)
	heads := make([]int, len(runs))
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]byte, 0, total)
	for {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r) {
				continue
			}
			if best < 0 || sortTupleLess(sm,
				r[heads[i]:heads[i]+stride],
				runs[best][heads[best]:heads[best]+stride]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][heads[best]:heads[best]+stride]...)
		heads[best] += stride
	}
}

// sortTupleLess is the host mirror of the generated emitLess: per key, a
// differing field decides (DESC swaps operands), an equal field defers to
// the next key. Char compares the full padded field byte-wise (equal widths
// make this identical to the guest's padded strcmp); Float64 uses the
// F64Ne-guarded F64Lt shape, which Go's != and < reproduce including NaN
// behavior; integer classes compare signed.
func sortTupleLess(sm *SortMerge, a, b []byte) bool {
	for _, k := range sm.Keys {
		off := int(k.Offset)
		lo, hi := a, b
		if k.Desc {
			lo, hi = b, a
		}
		switch k.T.Kind {
		case types.Char:
			c := bytes.Compare(lo[off:off+k.T.Length], hi[off:off+k.T.Length])
			if c != 0 {
				return c < 0
			}
		case types.Float64:
			x := math.Float64frombits(binary.LittleEndian.Uint64(lo[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(hi[off:]))
			if x != y {
				return x < y
			}
		case types.Int64, types.Decimal:
			x := int64(binary.LittleEndian.Uint64(lo[off:]))
			y := int64(binary.LittleEndian.Uint64(hi[off:]))
			if x != y {
				return x < y
			}
		case types.Bool:
			x, y := int32(lo[off]), int32(hi[off])
			if x != y {
				return x < y
			}
		default: // Int32, Date
			x := int32(binary.LittleEndian.Uint32(lo[off:]))
			y := int32(binary.LittleEndian.Uint32(hi[off:]))
			if x != y {
				return x < y
			}
		}
	}
	return false
}
