//go:build !turbofan_count

package turbofan

// retire is the run loop's hook for the retired-instruction counter. Without
// the turbofan_count build tag it is empty and inlines to nothing, so the
// normal dispatch loop carries no counter (see count_on.go).
func retire(uint16) {}
