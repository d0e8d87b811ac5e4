package engine

import (
	"slices"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/obs"
	"wasmdb/internal/wasm"
)

// callGraphModule builds a module with one imported function (index 0) and
// six defined ones: top calls mid, mid calls add, disp reaches sub and add
// through call_indirect, and lone calls nothing. Every defined function is
// exported under its name.
func callGraphModule() (bin []byte, idx map[string]uint32) {
	b := wasm.NewModuleBuilder()
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}}
	b.ImportFunc("env", "h", ft)
	idx = map[string]uint32{}
	fn := func(name string, ft wasm.FuncType, body func(f *wasm.FuncBuilder)) {
		f := b.NewFunc(name, ft)
		body(f)
		b.Export(name, wasm.ExternFunc, f.Index)
		idx[name] = f.Index
	}
	bin2 := func(op func(f *wasm.FuncBuilder)) func(f *wasm.FuncBuilder) {
		return func(f *wasm.FuncBuilder) { f.LocalGet(0); f.LocalGet(1); op(f) }
	}
	fn("add", ft, bin2(func(f *wasm.FuncBuilder) { f.I64Add() }))
	fn("sub", ft, bin2(func(f *wasm.FuncBuilder) { f.I64Sub() }))
	fn("mid", ft, bin2(func(f *wasm.FuncBuilder) { f.Call(idx["add"]) }))
	fn("top", ft, bin2(func(f *wasm.FuncBuilder) { f.Call(idx["mid"]) }))
	ti := b.AddType(ft)
	fn("disp", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}},
		func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.LocalGet(2)
			f.LocalGet(0)
			f.Emit(wasm.OpCallIndirect, uint64(ti), 0)
		})
	fn("lone", ft, bin2(func(f *wasm.FuncBuilder) { f.I64Mul() }))
	m := b.Module()
	m.HasTable = true
	m.TableMin = 2
	m.Elems = []wasm.ElemSegment{{Offset: 0, Funcs: []uint32{idx["sub"], idx["add"]}}}
	return wasm.Encode(m), idx
}

// queuedFuncs returns the func argument of every tier-up-queued event on tr,
// in order, and checks each carries the given trigger and rows.
func queuedFuncs(t *testing.T, tr *obs.Trace, trigger string, rows int64) []int64 {
	t.Helper()
	var out []int64
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvTierUpQueued {
			continue
		}
		var fn, r int64
		var tg string
		for _, a := range ev.Args {
			switch a.Key {
			case "func":
				fn = a.Val
			case "rows":
				r = a.Val
			case "trigger":
				tg = a.Str
			}
		}
		if tg != trigger || r != rows {
			t.Errorf("func %d queued with trigger %q, rows %d; want %q, %d", fn, tg, r, trigger, rows)
		}
		out = append(out, fn)
	}
	return out
}

// servedBy calls export once and reports whether turbofan code served it.
func servedBy(t *testing.T, inst *Instance, export string, args ...uint64) Tier {
	t.Helper()
	_, tf0 := inst.TierCalls()
	mustCall(t, inst, export, args...)
	if _, tf := inst.TierCalls(); tf > tf0 {
		return TierTurbofan
	}
	return TierLiftoff
}

// TestTierUpQueuesStaticCallees: a queued function brings its transitive
// call targets (and, for a call_indirect, every table entry) in queue order;
// a function already queued, an imported one and the unreached ones stay
// out, and only what was queued runs on tier 2.
func TestTierUpQueuesStaticCallees(t *testing.T) {
	bin, idx := callGraphModule()
	m, err := New(Config{Tier: TierAdaptive}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	m.TierUp(tr, TriggerRowsAhead, 100, idx["top"], 0)
	if err := m.WaitQueued(); err != nil {
		t.Fatal(err)
	}
	want := []int64{int64(idx["top"]), int64(idx["mid"]), int64(idx["add"])}
	if got := queuedFuncs(t, tr, TriggerRowsAhead, 100); !slices.Equal(got, want) {
		t.Fatalf("queued %v, want %v (top, mid, add)", got, want)
	}
	// Publication follows the queue: the first tier-up is top.
	for _, ev := range tr.Events() {
		if ev.Name == obs.EvTierUp {
			if ev.Args[0].Val != int64(idx["top"]) {
				t.Errorf("first tier-up is func %d, want top (%d)", ev.Args[0].Val, idx["top"])
			}
			break
		}
	}
	if m.Optimized() {
		t.Error("Optimized with disp, sub and lone never queued")
	}
	inst := instantiateCallGraph(t, m)
	if tier := servedBy(t, inst, "top", 30, 12); tier != TierTurbofan {
		t.Errorf("top served by %v after its queue drained", tier)
	}
	if tier := servedBy(t, inst, "lone", 30, 12); tier != TierLiftoff {
		t.Errorf("lone served by %v though never queued", tier)
	}

	tr2 := obs.NewTrace()
	m.TierUp(tr2, TriggerRowsAhead, 7, idx["top"], idx["disp"])
	if err := m.WaitQueued(); err != nil {
		t.Fatal(err)
	}
	want = []int64{int64(idx["disp"]), int64(idx["sub"])}
	if got := queuedFuncs(t, tr2, TriggerRowsAhead, 7); !slices.Equal(got, want) {
		t.Fatalf("second TierUp queued %v, want %v (disp, sub; top and add were queued)", got, want)
	}
	if got := mustCall(t, inst, "disp", 0, 30, 12); got[0] != 18 {
		t.Errorf("disp(sub) = %d, want 18", got[0])
	}

	tr3 := obs.NewTrace()
	m.tr = tr3 // WaitOptimized queues on the compile trace
	if err := m.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	if got := queuedFuncs(t, tr3, TriggerWait, 0); !slices.Equal(got, []int64{int64(idx["lone"])}) {
		t.Fatalf("WaitOptimized queued %v, want only lone (%d)", got, idx["lone"])
	}
	if !m.Optimized() {
		t.Error("not Optimized after WaitOptimized")
	}
	if tier := servedBy(t, inst, "lone", 30, 12); tier != TierTurbofan {
		t.Errorf("lone served by %v after WaitOptimized", tier)
	}
}

// instantiateCallGraph instantiates callGraphModule with its import bound.
func instantiateCallGraph(t *testing.T, m *Module) *Instance {
	t.Helper()
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}}
	inst, err := m.Instantiate(Imports{Funcs: map[string]*rt.HostFunc{
		"env.h": {Type: ft, Fn: func(_ *rt.Env, args, out []uint64) { out[0] = args[0] }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestWaitOptimizedFreshModule: WaitOptimized on a module that never ran
// queues every function and ends with all of them on tier 2, having emitted
// what TierTurbofan emits for the same module.
func TestWaitOptimizedFreshModule(t *testing.T) {
	bin, idx := callGraphModule()
	m, err := New(Config{Tier: TierAdaptive}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if m.Optimized() || m.Stats().TurbofanInstrs != 0 {
		t.Fatalf("fresh module: Optimized %v, %d tier-2 instrs; want false, 0", m.Optimized(), m.Stats().TurbofanInstrs)
	}
	if err := m.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	if !m.Optimized() {
		t.Error("not Optimized after WaitOptimized")
	}
	inst := instantiateCallGraph(t, m)
	for name := range idx {
		args := []uint64{30, 12}
		if name == "disp" {
			args = []uint64{1, 30, 12}
		}
		if tier := servedBy(t, inst, name, args...); tier != TierTurbofan {
			t.Errorf("%s served by %v after WaitOptimized", name, tier)
		}
	}
	full, err := New(Config{Tier: TierTurbofan}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Stats().TurbofanInstrs, full.Stats().TurbofanInstrs; got != want {
		t.Errorf("TurbofanInstrs after WaitOptimized = %d, want %d (TierTurbofan)", got, want)
	}
}

// TestTierUpFullyQueuedIsFree: once every function is queued — or when the
// module never tiers up in the background — TierUp allocates nothing and
// records nothing.
func TestTierUpFullyQueuedIsFree(t *testing.T) {
	bin, idx := callGraphModule()
	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		allocs := testing.AllocsPerRun(100, func() {
			m.TierUp(tr, TriggerRerun, 0)
			m.TierUp(tr, TriggerRowsAhead, 5, idx["top"])
		})
		if allocs != 0 || len(tr.Events()) != 0 {
			t.Errorf("%v: TierUp on a fully queued module allocated %.0f times and recorded %d events", tier, allocs, len(tr.Events()))
		}
	}
}
