package engine

import (
	"errors"
	"testing"

	"wasmdb/internal/faultpoint"
	"wasmdb/internal/leakcheck"
)

// TestCompilePathFaultParity: every way into a code slot — a forced tier's
// Compile, the first call and the tier-up drain — hits its tier's fault
// point inside its panic isolation. Armed with an error, a forced Compile and
// the first call return it; armed with a hit function that panics, they
// return an *EngineError. Either way a failed drain compile is the
// WaitQueued error and leaves the function serving tier-1 code, with
// TurbofanFailed = 1.
func TestCompilePathFaultParity(t *testing.T) {
	defer leakcheck.Check(t)
	injected := errors.New("injected compile failure")
	point := map[Tier]string{TierLiftoff: "liftoff-compile", TierTurbofan: "turbofan-compile"}
	isEngineError := func(err error) bool {
		var ee *EngineError
		return errors.As(err, &ee) && len(ee.Stack) > 0
	}
	for _, arm := range []struct {
		name string
		hit  func(int) error
		want func(error) bool
	}{
		{"error", faultpoint.Always(injected), func(err error) bool { return errors.Is(err, injected) }},
		{"panic", func(int) error { panic("injected compile panic") }, isEngineError},
	} {
		// try arms the fault point of tier around f and checks f's error.
		try := func(path string, tier Tier, f func() error) {
			t.Helper()
			faultpoint.Enable(point[tier], arm.hit)
			err := f()
			faultpoint.Disable(point[tier])
			if !arm.want(err) {
				t.Errorf("%s, %s: returned %v (%T), want the injected %s", arm.name, path, err, err, arm.name)
			}
		}
		for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
			try("forced "+tier.String(), tier, func() error {
				_, err := New(Config{Tier: tier}).Compile(spinModule())
				return err
			})
		}

		m, err := New(Config{Tier: TierAdaptive}).Compile(spinModule())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		try("first call", TierLiftoff, func() error {
			_, err := inst.Call("calc", 1)
			return err
		})
		if got := mustCall(t, inst, "calc", 41); got[0] != 42 {
			t.Fatalf("%s: calc(41) after a failed first call = %d, want 42", arm.name, got[0])
		}
		calc, _ := m.ExportedFunc("calc")
		try("drain", TierTurbofan, func() error {
			m.TierUp(nil, TriggerRerun, 0, calc)
			return m.WaitQueued()
		})
		if tier := servedBy(t, inst, "calc", 1); tier != TierLiftoff {
			t.Errorf("%s: calc served by %v after its tier-2 compile failed", arm.name, tier)
		}
		if st := m.Stats(); st.TurbofanFailed != 1 || st.TurbofanInstrs != 0 {
			t.Errorf("%s: TurbofanFailed = %d, TurbofanInstrs = %d after the drain; want 1, 0", arm.name, st.TurbofanFailed, st.TurbofanInstrs)
		}
	}
}

// TestFirstCallLosesToTierUp is the exact schedule of the compare-and-swap
// publication: while a first call's tier-1 compile holds the stub's mutex,
// the same function is queued for tier 2, compiled and published. The tier-1
// code then must not replace it: the first call itself runs the tier-2 code,
// a second call is served by tier 2, and the tier-1 compile is counted as a
// function compiled twice.
func TestFirstCallLosesToTierUp(t *testing.T) {
	defer leakcheck.Check(t)
	m, err := New(Config{Tier: TierAdaptive}).Compile(spinModule())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	calc, _ := m.ExportedFunc("calc")
	faultpoint.Enable("liftoff-compile", func(int) error {
		m.TierUp(nil, TriggerRerun, 0, calc)
		if err := m.WaitQueued(); err != nil {
			t.Errorf("tier-up during the first call: %v", err)
		}
		return nil
	})
	got, err := inst.Call("calc", 41)
	faultpoint.Disable("liftoff-compile")
	if err != nil || got[0] != 42 {
		t.Fatalf("first call: calc(41) = %v, %v; want 42", got, err)
	}
	if code := m.funcs[int(calc)-m.wmod.NumImportedFuncs()].code.Load(); code == nil || code.tier != TierTurbofan {
		t.Fatalf("slot holds %+v after the first call, want the tier-2 code published during it", code)
	}
	if tier := servedBy(t, inst, "calc", 1); tier != TierTurbofan {
		t.Errorf("second call served by %v, want turbofan", tier)
	}
	if st := m.Stats(); st.LiftoffFuncs != 1 {
		t.Errorf("LiftoffFuncs = %d, want 1", st.LiftoffFuncs)
	}
	if funcs, instrs := DoubleCompiled(m); funcs != 1 || instrs == 0 {
		t.Errorf("DoubleCompiled = %d functions, %d instrs; want calc (1 function)", funcs, instrs)
	}
}
