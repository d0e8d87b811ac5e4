//go:build turbofan_count

package turbofan

// Built with -tags turbofan_count, the run loop counts every instruction it
// dispatches. The counter is a plain variable: measurements run one query on
// one worker (make retired). It is the count behind the retired-instruction
// table in EXPERIMENTS.md; it repeats exactly.
var retired uint64

func retire(uint16) { retired++ }

// ResetRetired zeroes the counter.
func ResetRetired() { retired = 0 }

// Retired returns the instructions dispatched since the last reset.
func Retired() uint64 { return retired }
