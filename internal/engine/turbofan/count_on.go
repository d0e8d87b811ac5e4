//go:build turbofan_count

package turbofan

import (
	"cmp"
	"slices"
)

// Built with -tags turbofan_count, the run loop counts every instruction it
// dispatches, per opcode. The counters are plain variables: measurements run
// one query on one worker (make retired). They are the counts behind the
// retired-instruction table in EXPERIMENTS.md; they repeat exactly.
var dispatched [numOps]uint64

func retire(op uint16) {
	if int(op) < len(dispatched) {
		dispatched[op]++
	}
}

// ResetRetired zeroes the counters.
func ResetRetired() { clear(dispatched[:]) }

// Retired returns the instructions dispatched since the last reset.
func Retired() uint64 {
	var n uint64
	for _, c := range dispatched {
		n += c
	}
	return n
}

// OpCount is how often one opcode was dispatched since the last reset.
type OpCount struct {
	Name string
	N    uint64
	// Memory marks the loads, stores and read-modify-write updates.
	Memory bool
}

// Dispatched returns the opcodes dispatched since the last reset, most
// frequent first.
func Dispatched() []OpCount {
	var out []OpCount
	for op, n := range dispatched {
		if n == 0 {
			continue
		}
		out = append(out, OpCount{ops[op].name, n, ops[op].kind.memory()})
	}
	slices.SortStableFunc(out, func(a, b OpCount) int { return cmp.Compare(b.N, a.N) })
	return out
}
