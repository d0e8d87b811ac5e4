package engine

import "wasmdb/internal/engine/turbofan"

// DoubleCompiled counts the functions of m that both tiers compiled, and the
// tier-1 instructions those compiles emitted. It is exact once m's tier-up
// queue has drained (WaitQueued): every function tier 1 compiled is counted
// in LiftoffFuncs, and the ones tier 2 did not replace still hold their
// tier-1 code, so the rest were compiled twice.
func DoubleCompiled(m *Module) (funcs, instrs int) {
	st := m.Stats()
	for i := range m.funcs {
		if t := m.funcs[i].code.Load(); t != nil && t.tier == TierLiftoff {
			st.LiftoffFuncs--
			st.LiftoffInstrs -= t.c.(*turbofan.Code).NumInstrs()
		}
	}
	return st.LiftoffFuncs, st.LiftoffInstrs
}
