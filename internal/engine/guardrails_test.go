package engine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"wasmdb/internal/faultpoint"
	"wasmdb/internal/wasm"
)

// spinModule builds a module with two never-terminating functions — "spin",
// a bare `loop br 0 end`, and "spin_rotated", a top-tested `while (1)` whose
// header the optimizing tier rotates to the bottom of the loop — and a
// well-behaved "calc" function, the canonical runaway-guest scenario.
func spinModule() []byte {
	b := wasm.NewModuleBuilder()
	spin := b.NewFunc("spin", wasm.FuncType{})
	spin.Loop(wasm.BlockVoid)
	spin.Br(0)
	spin.End()
	b.Export("spin", wasm.ExternFunc, spin.Index)

	rot := b.NewFunc("spin_rotated", wasm.FuncType{})
	one := rot.AddLocal(wasm.I32)
	rot.I32Const(1)
	rot.LocalSet(one)
	rot.Block(wasm.BlockVoid)
	rot.Loop(wasm.BlockVoid)
	rot.LocalGet(one)
	rot.I32Eqz()
	rot.BrIf(1)
	rot.Br(0)
	rot.End()
	rot.End()
	b.Export("spin_rotated", wasm.ExternFunc, rot.Index)

	calc := b.NewFunc("calc", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	calc.LocalGet(0)
	calc.I64Const(1)
	calc.I64Add()
	b.Export("calc", wasm.ExternFunc, calc.Index)
	return b.Bytes()
}

func TestFuelExhaustionStopsSpinLoop(t *testing.T) {
	bin := spinModule()
	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		for _, spin := range []string{"spin", "spin_rotated"} {
			inst.SetFuel(10000)
			_, err = inst.Call(spin)
			if !errors.Is(err, ErrFuelExhausted) {
				t.Fatalf("%v: %s returned %v, want ErrFuelExhausted", tier, spin, err)
			}
			if left := inst.FuelLeft(); left != 0 {
				t.Errorf("%v: FuelLeft after exhausting %s = %d, want 0", tier, spin, left)
			}
		}
		// Re-fueling makes the instance usable again.
		inst.SetFuel(10000)
		if got := mustCall(t, inst, "calc", 41); got[0] != 42 {
			t.Errorf("%v: calc after re-fuel = %d, want 42", tier, got[0])
		}
		if left := inst.FuelLeft(); left <= 0 || left >= 10000 {
			t.Errorf("%v: FuelLeft after calc = %d, want in (0, 10000)", tier, left)
		}
		// Disabling metering restores unmetered execution.
		inst.SetFuel(0)
		if left := inst.FuelLeft(); left != -1 {
			t.Errorf("%v: FuelLeft unmetered = %d, want -1", tier, left)
		}
		mustCall(t, inst, "calc", 1)
	}
}

func TestInterruptStopsSpinLoop(t *testing.T) {
	bin := spinModule()
	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		for _, spin := range []string{"spin", "spin_rotated"} {
			inst.SetFuel(1 << 60) // effectively unlimited; metering = interruptible
			go func() {
				time.Sleep(10 * time.Millisecond)
				inst.Interrupt()
			}()
			_, err = inst.Call(spin)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("%v: %s returned %v, want ErrInterrupted", tier, spin, err)
			}
		}
		// SetFuel clears the interrupt; the instance serves calls again.
		inst.SetFuel(1 << 60)
		if got := mustCall(t, inst, "calc", 1); got[0] != 2 {
			t.Errorf("%v: calc after interrupt = %d", tier, got[0])
		}
	}
}

func TestMemoryBudget(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 200)
	grow := b.NewFunc("grow", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	grow.LocalGet(0)
	grow.Op(wasm.OpMemoryGrow)
	b.Export("grow", wasm.ExternFunc, grow.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		inst.SetMemoryBudget(4)
		// Growth within the budget keeps normal wasm semantics.
		if got := mustCall(t, inst, "grow", 2); got[0] != 1 {
			t.Fatalf("%v: grow(2) = %d, want 1", tier, got[0])
		}
		// Growth past the budget is a typed trap, not a silent -1.
		_, err = inst.Call("grow", 10)
		if !errors.Is(err, ErrMemoryLimit) {
			t.Fatalf("%v: grow(10) returned %v, want ErrMemoryLimit", tier, err)
		}
		// The instance survives; wasm max semantics are unaffected.
		inst.SetMemoryBudget(0)
		if got := mustCall(t, inst, "grow", 1000); int32(uint32(got[0])) != -1 {
			t.Errorf("%v: grow past max = %d, want -1", tier, int32(uint32(got[0])))
		}
		if got := mustCall(t, inst, "grow", 0); got[0] != 3 {
			t.Errorf("%v: size = %d, want 3", tier, got[0])
		}
	}
}

// TestGrowToMaximumTouchesOnePage: a module-defined memory is demand-zero, so
// a guest that grows its memory to the 4 GiB maximum and stores to the last
// page costs the host one page plus the page table — and the same guest under
// a memory budget still ends in ErrMemoryLimit at the grow.
func TestGrowToMaximumTouchesOnePage(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 65536)
	f := b.NewFunc("hog", wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	f.I32Const(65535)
	f.Op(wasm.OpMemoryGrow)
	f.Drop()
	f.I32Const(-8) // 0xFFFFFFF8: the last eight bytes of the address space
	f.I64Const(0x1122334455667788)
	f.I64Store(0)
	f.I32Const(-8)
	f.I32Load(4)
	b.Export("hog", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		inst.SetMemoryBudget(64)
		if _, err := inst.Call("hog"); !errors.Is(err, ErrMemoryLimit) {
			t.Fatalf("%v: hog under a 64-page budget returned %v, want ErrMemoryLimit", tier, err)
		}
		inst.SetMemoryBudget(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := mustCall(t, inst, "hog")
		runtime.ReadMemStats(&after)
		if got[0] != 0x11223344 {
			t.Errorf("%v: hog = %#x, want 0x11223344", tier, got[0])
		}
		mem := inst.Memory()
		if mem.Pages() != 65536 || mem.Committed() != 1 {
			t.Errorf("%v: %d pages, %d committed; want 65536 and 1", tier, mem.Pages(), mem.Committed())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%v: growing to 4 GiB and touching one page allocated %d bytes", tier, grew)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	bin := spinModule()
	m, err := New(Config{Tier: TierLiftoff}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable("engine-call-panic", faultpoint.Always(errors.New("simulated engine bug")))
	_, err = inst.Call("calc", 1)
	faultpoint.Disable("engine-call-panic")
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("panic surfaced as %v (%T), want *EngineError", err, err)
	}
	if len(ee.Stack) == 0 {
		t.Error("EngineError carries no stack trace")
	}
	// The panic was contained and the instance remains usable.
	if got := mustCall(t, inst, "calc", 41); got[0] != 42 {
		t.Errorf("calc after isolated panic = %d, want 42", got[0])
	}
}

func TestTurbofanFailureDegradesToLiftoff(t *testing.T) {
	bin := spinModule()
	faultpoint.Enable("turbofan-compile", faultpoint.Always(errors.New("injected tier-2 failure")))
	defer faultpoint.Disable("turbofan-compile")

	// Adaptive: background tier-up fails, execution continues on liftoff.
	m, err := New(Config{Tier: TierAdaptive}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitOptimized(); err == nil {
		t.Error("WaitOptimized reported no error despite injected failure")
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if got := mustCall(t, inst, "calc", int64ToU64(int64(k))); got[0] != uint64(k+1) {
			t.Fatalf("calc(%d) = %d under degraded tier", k, got[0])
		}
	}
	lo, tf := inst.TierCalls()
	if tf != 0 || lo != 5 {
		t.Errorf("tier calls = (liftoff %d, turbofan %d), want (5, 0)", lo, tf)
	}
	st := m.Stats()
	if st.TurbofanFailed != st.NumFuncs {
		t.Errorf("TurbofanFailed = %d, want %d (every function)", st.TurbofanFailed, st.NumFuncs)
	}

	// Synchronous turbofan tier: the failure is a compile error.
	if _, err := New(Config{Tier: TierTurbofan}).Compile(bin); err == nil {
		t.Error("TierTurbofan compile succeeded despite injected failure")
	}
}

func int64ToU64(v int64) uint64 { return uint64(v) }

// TestInstanceReuseAfterTrap pins down the env.Reset() path: after any trap —
// including call-stack exhaustion, which abandons deep frame state — the
// instance must serve subsequent calls with correct results under every tier.
func TestInstanceReuseAfterTrap(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 1)
	div := b.NewFunc("div", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	div.LocalGet(0)
	div.LocalGet(1)
	div.Op(wasm.OpI64DivS)
	b.Export("div", wasm.ExternFunc, div.Index)

	rec := b.NewFunc("rec", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	rec.LocalGet(0)
	rec.I64Const(0)
	rec.Op(wasm.OpI64LeS)
	rec.If(wasm.BlockOf(wasm.I64))
	rec.I64Const(0)
	rec.Else()
	rec.LocalGet(0)
	rec.I64Const(1)
	rec.I64Sub()
	rec.CallBuilder(rec)
	rec.LocalGet(0)
	rec.I64Add()
	rec.End()
	b.Export("rec", wasm.ExternFunc, rec.Index)

	oob := b.NewFunc("oob", wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	oob.I32Const(1 << 24)
	oob.I64Load(0)
	b.Export("oob", wasm.ExternFunc, oob.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			if got := mustCall(t, inst, "div", 84, 2); got[0] != 42 {
				t.Fatalf("%v after %s: div = %d", tier, stage, got[0])
			}
			// Recursion must reach its full depth again — proof that the
			// trap's unwinding reset Depth and the frame arena.
			if got := mustCall(t, inst, "rec", 1000); got[0] != 1000*1001/2 {
				t.Fatalf("%v after %s: rec = %d", tier, stage, got[0])
			}
		}
		check("start")
		if _, err := inst.Call("div", 1, 0); err == nil {
			t.Fatalf("%v: div by zero did not trap", tier)
		}
		check("div trap")
		if _, err := inst.Call("rec", 1<<40); err == nil {
			t.Fatalf("%v: unbounded recursion did not trap", tier)
		}
		check("stack exhaustion")
		if _, err := inst.Call("oob"); err == nil {
			t.Fatalf("%v: oob load did not trap", tier)
		}
		check("memory trap")
		inst.SetFuel(100)
		if _, err := inst.Call("rec", 1<<40); !errors.Is(err, ErrFuelExhausted) {
			t.Fatalf("%v: fueled recursion returned %v", tier, err)
		}
		inst.SetFuel(0)
		check("fuel exhaustion")
	}
}
