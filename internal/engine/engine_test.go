package engine

import (
	"math"
	"math/rand"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// tiers lists every compilation configuration; differential tests run all.
var tiers = []Tier{TierLiftoff, TierTurbofan, TierAdaptive}

// runAll compiles and instantiates the module under every tier and invokes
// name with args, asserting that all tiers agree, and returns the result.
func runAll(t *testing.T, bin []byte, imp Imports, name string, args ...uint64) []uint64 {
	t.Helper()
	var ref []uint64
	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v compile: %v", tier, err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatalf("%v optimize: %v", tier, err)
		}
		inst, err := m.Instantiate(imp)
		if err != nil {
			t.Fatalf("%v instantiate: %v", tier, err)
		}
		got, err := inst.Call(name, args...)
		if err != nil {
			t.Fatalf("%v call %s: %v", tier, name, err)
		}
		if ref == nil {
			ref = got
		} else if len(got) != len(ref) {
			t.Fatalf("%v: result arity mismatch", tier)
		} else {
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%v: result[%d] = %#x, want %#x (liftoff)", tier, i, got[i], ref[i])
				}
			}
		}
	}
	return ref
}

func TestArithmetic(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("calc", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	// (a+b)*(a-b) ^ (a<<3)
	f.LocalGet(0)
	f.LocalGet(1)
	f.I32Add()
	f.LocalGet(0)
	f.LocalGet(1)
	f.I32Sub()
	f.I32Mul()
	f.LocalGet(0)
	f.I32Const(3)
	f.Op(wasm.OpI32Shl)
	f.I32Xor()
	b.Export("calc", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	got := runAll(t, bin, Imports{}, "calc", 100, 7)
	a, bb := int32(100), int32(7)
	want := uint64(uint32(((a + bb) * (a - bb)) ^ (a << 3)))
	if got[0] != want {
		t.Errorf("calc = %d, want %d", got[0], want)
	}
}

func TestLoopSum(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("sum", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	acc := f.AddLocal(wasm.I64)
	i := f.AddLocal(wasm.I64)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(0)
	f.Op(wasm.OpI64GeS)
	f.BrIf(1)
	f.LocalGet(acc)
	f.LocalGet(i)
	f.I64Add()
	f.LocalSet(acc)
	f.LocalGet(i)
	f.I64Const(1)
	f.I64Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)
	b.Export("sum", wasm.ExternFunc, f.Index)

	got := runAll(t, b.Bytes(), Imports{}, "sum", 100000)
	if want := uint64(100000 * 99999 / 2); got[0] != want {
		t.Errorf("sum = %d, want %d", got[0], want)
	}
}

func TestBlockResultAndBranchWithValue(t *testing.T) {
	b := wasm.NewModuleBuilder()
	// f(x): block (result i32) { if x > 10 { br 0 with 111 } 222 }
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	f.Block(wasm.BlockOf(wasm.I32))
	f.I32Const(111)
	f.LocalGet(0)
	f.I32Const(10)
	f.Op(wasm.OpI32GtS)
	f.BrIf(0)
	f.Drop()
	f.I32Const(222)
	f.End()
	b.Export("f", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	if got := runAll(t, bin, Imports{}, "f", 50); got[0] != 111 {
		t.Errorf("f(50) = %d, want 111", got[0])
	}
	if got := runAll(t, bin, Imports{}, "f", 5); got[0] != 222 {
		t.Errorf("f(5) = %d, want 222", got[0])
	}
}

func TestIfElse(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("max", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.LocalGet(0)
	f.LocalGet(1)
	f.Op(wasm.OpI64GtS)
	f.If(wasm.BlockOf(wasm.I64))
	f.LocalGet(0)
	f.Else()
	f.LocalGet(1)
	f.End()
	b.Export("max", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	if got := runAll(t, bin, Imports{}, "max", 3, 9); got[0] != 9 {
		t.Errorf("max(3,9) = %d", got[0])
	}
	neg := uint64(1<<64 - 5) // -5 as i64
	if got := runAll(t, bin, Imports{}, "max", neg, 2); got[0] != 2 {
		t.Errorf("max(-5,2) = %d", got[0])
	}
}

func TestRecursionFib(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("fib", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.LocalGet(0)
	f.I64Const(2)
	f.Op(wasm.OpI64LtS)
	f.If(wasm.BlockOf(wasm.I64))
	f.LocalGet(0)
	f.Else()
	f.LocalGet(0)
	f.I64Const(1)
	f.I64Sub()
	f.CallBuilder(f)
	f.LocalGet(0)
	f.I64Const(2)
	f.I64Sub()
	f.CallBuilder(f)
	f.I64Add()
	f.End()
	b.Export("fib", wasm.ExternFunc, f.Index)

	got := runAll(t, b.Bytes(), Imports{}, "fib", 20)
	if got[0] != 6765 {
		t.Errorf("fib(20) = %d, want 6765", got[0])
	}
}

func TestMemoryOps(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 4)
	f := b.NewFunc("swap64", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}})
	tmp := f.AddLocal(wasm.I64)
	f.LocalGet(0)
	f.I64Load(0)
	f.LocalSet(tmp)
	f.LocalGet(0)
	f.LocalGet(1)
	f.I64Load(0)
	f.I64Store(0)
	f.LocalGet(1)
	f.LocalGet(tmp)
	f.I64Store(0)
	b.Export("swap64", wasm.ExternFunc, f.Index)

	g := b.NewFunc("get", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}})
	g.LocalGet(0)
	g.I64Load(0)
	b.Export("get", wasm.ExternFunc, g.Index)

	s := b.NewFunc("set", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64}})
	s.LocalGet(0)
	s.LocalGet(1)
	s.I64Store(0)
	b.Export("set", wasm.ExternFunc, s.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		mustCall(t, inst, "set", 8, 0xDEADBEEF)
		mustCall(t, inst, "set", 16, 0xCAFE)
		mustCall(t, inst, "swap64", 8, 16)
		if got := mustCall(t, inst, "get", 8); got[0] != 0xCAFE {
			t.Errorf("%v: mem[8] = %#x", tier, got[0])
		}
		if got := mustCall(t, inst, "get", 16); got[0] != 0xDEADBEEF {
			t.Errorf("%v: mem[16] = %#x", tier, got[0])
		}
		// Close releases the memory the module defined itself.
		inst.Close()
		if n := inst.Memory().Pages(); n != 0 {
			t.Errorf("%v: defined memory has %d pages after Close, want it released", tier, n)
		}
	}
}

func mustCall(t *testing.T, inst *Instance, name string, args ...uint64) []uint64 {
	t.Helper()
	got, err := inst.Call(name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return got
}

func TestHostFunctionCallback(t *testing.T) {
	b := wasm.NewModuleBuilder()
	addIdx := b.ImportFunc("env", "host_add", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.LocalGet(0)
	f.I64Const(100)
	f.Call(addIdx)
	b.Export("f", wasm.ExternFunc, f.Index)

	calls := 0
	imp := Imports{Funcs: map[string]*rt.HostFunc{
		"env.host_add": {
			Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}},
			Fn: func(env *rt.Env, args, res []uint64) {
				calls++
				res[0] = args[0] + args[1]
			},
		},
	}}
	got := runAll(t, b.Bytes(), imp, "f", 23)
	if got[0] != 123 {
		t.Errorf("f(23) = %d, want 123", got[0])
	}
	if calls != len(tiers) {
		t.Errorf("host function called %d times, want %d", calls, len(tiers))
	}
}

func TestImportedMemoryRewiring(t *testing.T) {
	// Host maps a buffer into the module's memory; the module sums it in
	// place — zero copies, the reproduction of §6.1.
	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", 2, 16)
	f := b.NewFunc("sum32", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I64}})
	acc := f.AddLocal(wasm.I64)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(0)
	f.LocalGet(1)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(acc)
	f.LocalGet(0)
	f.I32Load(0)
	f.Op(wasm.OpI64ExtendI32S)
	f.I64Add()
	f.LocalSet(acc)
	f.LocalGet(0)
	f.I32Const(4)
	f.I32Add()
	f.LocalSet(0)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)
	b.Export("sum32", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	host := make([]byte, wmem.PageSize)
	var want int64
	for i := 0; i < 1000; i++ {
		v := int32(i*7 - 1500)
		host[i*4] = byte(v)
		host[i*4+1] = byte(v >> 8)
		host[i*4+2] = byte(v >> 16)
		host[i*4+3] = byte(v >> 24)
		want += int64(v)
	}

	for _, tier := range tiers {
		mem := wmem.New(2, 16)
		if err := mem.Map(wmem.PageSize, host); err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{Memory: mem})
		if err != nil {
			t.Fatal(err)
		}
		got := mustCall(t, inst, "sum32", wmem.PageSize, wmem.PageSize+4000)
		if int64(got[0]) != want {
			t.Errorf("%v: sum = %d, want %d", tier, int64(got[0]), want)
		}
		// Mutating host memory is visible to the guest without remapping.
		host[0] = byte(int32(host[0]) + 1)
		got2 := mustCall(t, inst, "sum32", wmem.PageSize, wmem.PageSize+4000)
		if int64(got2[0]) != want+1 {
			t.Errorf("%v: after host write sum = %d, want %d", tier, int64(got2[0]), want+1)
		}
		host[0]--
		// Close leaves an imported memory to the host that owns it.
		inst.Close()
		if n := mem.Pages(); n != 2 {
			t.Errorf("%v: imported memory has %d pages after Close, want 2", tier, n)
		}
	}
}

func TestTraps(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 1)
	div := b.NewFunc("div", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	div.LocalGet(0)
	div.LocalGet(1)
	div.Op(wasm.OpI32DivS)
	b.Export("div", wasm.ExternFunc, div.Index)

	oob := b.NewFunc("oob", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	oob.LocalGet(0)
	oob.I32Load(0)
	b.Export("oob", wasm.ExternFunc, oob.Index)

	unr := b.NewFunc("unr", wasm.FuncType{})
	unr.Unreachable()
	b.Export("unr", wasm.ExternFunc, unr.Index)

	rec := b.NewFunc("rec", wasm.FuncType{})
	rec.CallBuilder(rec)
	b.Export("rec", wasm.ExternFunc, rec.Index)

	trunc := b.NewFunc("trunc", wasm.FuncType{Params: []wasm.ValType{wasm.F64}, Results: []wasm.ValType{wasm.I32}})
	trunc.LocalGet(0)
	trunc.Op(wasm.OpI32TruncF64S)
	b.Export("trunc", wasm.ExternFunc, trunc.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WaitOptimized(); err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Call("div", 10, 0); err == nil {
			t.Errorf("%v: division by zero did not trap", tier)
		}
		if _, err := inst.Call("div", uint64(0x80000000), uint64(0xFFFFFFFF)); err == nil {
			t.Errorf("%v: INT_MIN/-1 did not trap", tier)
		}
		if got, err := inst.Call("div", 100, 7); err != nil || got[0] != 14 {
			t.Errorf("%v: 100/7 = %v, %v", tier, got, err)
		}
		if _, err := inst.Call("oob", 1<<20); err == nil {
			t.Errorf("%v: out-of-bounds load did not trap", tier)
		}
		if _, err := inst.Call("unr"); err == nil {
			t.Errorf("%v: unreachable did not trap", tier)
		}
		if _, err := inst.Call("rec"); err == nil {
			t.Errorf("%v: infinite recursion did not trap", tier)
		}
		if _, err := inst.Call("trunc", math.Float64bits(math.NaN())); err == nil {
			t.Errorf("%v: trunc(NaN) did not trap", tier)
		}
		if _, err := inst.Call("trunc", math.Float64bits(1e300)); err == nil {
			t.Errorf("%v: trunc(1e300) did not trap", tier)
		}
		if got, err := inst.Call("trunc", math.Float64bits(-3.99)); err != nil || int32(uint32(got[0])) != -3 {
			t.Errorf("%v: trunc(-3.99) = %v, %v", tier, got, err)
		}
		// The instance stays usable after traps.
		if got, err := inst.Call("div", 30, 3); err != nil || got[0] != 10 {
			t.Errorf("%v: instance unusable after trap: %v, %v", tier, got, err)
		}
	}
}

func TestCallIndirect(t *testing.T) {
	b := wasm.NewModuleBuilder()
	ft := wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}}
	add := b.NewFunc("add", ft)
	add.LocalGet(0)
	add.LocalGet(1)
	add.I64Add()
	sub := b.NewFunc("sub", ft)
	sub.LocalGet(0)
	sub.LocalGet(1)
	sub.I64Sub()
	ti := b.AddType(ft)

	disp := b.NewFunc("disp", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	disp.LocalGet(1)
	disp.LocalGet(2)
	disp.LocalGet(0)
	disp.Emit(wasm.OpCallIndirect, uint64(ti), 0)
	b.Export("disp", wasm.ExternFunc, disp.Index)

	m := b.Module()
	m.HasTable = true
	m.TableMin = 2
	m.Elems = []wasm.ElemSegment{{Offset: 0, Funcs: []uint32{add.Index, sub.Index}}}
	bin := wasm.Encode(m)

	got := runAll(t, bin, Imports{}, "disp", 0, 30, 12)
	if got[0] != 42 {
		t.Errorf("disp(add) = %d", got[0])
	}
	got = runAll(t, bin, Imports{}, "disp", 1, 30, 12)
	if got[0] != 18 {
		t.Errorf("disp(sub) = %d", got[0])
	}
}

func TestBrTable(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("pick", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	f.Block(wasm.BlockVoid) // 2 → 300
	f.Block(wasm.BlockVoid) // 1 → 200
	f.Block(wasm.BlockVoid) // 0 → 100
	f.LocalGet(0)
	f.BrTable([]uint32{0, 1}, 2)
	f.End()
	f.I32Const(100)
	f.Return()
	f.End()
	f.I32Const(200)
	f.Return()
	f.End()
	f.I32Const(300)
	b.Export("pick", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	want := map[uint64]uint64{0: 100, 1: 200, 2: 300, 7: 300}
	for arg, exp := range want {
		if got := runAll(t, bin, Imports{}, "pick", arg); got[0] != exp {
			t.Errorf("pick(%d) = %d, want %d", arg, got[0], exp)
		}
	}
}

func TestGlobals(t *testing.T) {
	b := wasm.NewModuleBuilder()
	g := b.AddGlobal(wasm.I64, true, 1000)
	f := b.NewFunc("bump", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.GlobalGet(g)
	f.LocalGet(0)
	f.I64Add()
	f.GlobalSet(g)
	f.GlobalGet(g)
	b.Export("bump", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	for _, tier := range tiers {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustCall(t, inst, "bump", 1); got[0] != 1001 {
			t.Errorf("%v: bump = %d", tier, got[0])
		}
		if got := mustCall(t, inst, "bump", 9); got[0] != 1010 {
			t.Errorf("%v: bump = %d", tier, got[0])
		}
	}
}

func TestSelectBranchFree(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("min", wasm.FuncType{Params: []wasm.ValType{wasm.F64, wasm.F64}, Results: []wasm.ValType{wasm.F64}})
	f.LocalGet(0)
	f.LocalGet(1)
	f.LocalGet(0)
	f.LocalGet(1)
	f.Op(wasm.OpF64Lt)
	f.Select()
	b.Export("min", wasm.ExternFunc, f.Index)
	bin := b.Bytes()

	got := runAll(t, bin, Imports{}, "min", math.Float64bits(3.5), math.Float64bits(-2.25))
	if math.Float64frombits(got[0]) != -2.25 {
		t.Errorf("min = %v", math.Float64frombits(got[0]))
	}
}

func TestAdaptiveTierSwitch(t *testing.T) {
	// A module called repeatedly (morsel-wise) must migrate from liftoff to
	// turbofan once background compilation finishes.
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("work", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	acc := f.AddLocal(wasm.I64)
	i := f.AddLocal(wasm.I64)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(0)
	f.Op(wasm.OpI64GeS)
	f.BrIf(1)
	f.LocalGet(acc)
	f.LocalGet(i)
	f.I64Mul()
	f.LocalGet(i)
	f.I64Add()
	f.LocalSet(acc)
	f.LocalGet(i)
	f.I64Const(1)
	f.I64Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)
	b.Export("work", wasm.ExternFunc, f.Index)

	m, err := New(Config{Tier: TierAdaptive}).Compile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	// First call may be served by either tier (the race is the point);
	// after WaitOptimized every call must be turbofan.
	mustCall(t, inst, "work", 1000)
	if err := m.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	before, _ := inst.TierCalls()
	for k := 0; k < 5; k++ {
		mustCall(t, inst, "work", 1000)
	}
	lo, tf := inst.TierCalls()
	if lo != before {
		t.Errorf("liftoff calls grew after optimization: %d -> %d", before, lo)
	}
	if tf < 5 {
		t.Errorf("turbofan served %d calls, want >= 5", tf)
	}
	st := m.Stats()
	if st.Liftoff <= 0 || st.Turbofan <= 0 {
		t.Errorf("missing compile stats: %+v", st)
	}
}

// TestRandomizedDifferential generates random straight-line arithmetic
// programs and checks that both tiers agree with a host-side evaluation.
func TestRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	type binop struct {
		op   wasm.Opcode
		eval func(a, b uint64) uint64
	}
	ops := []binop{
		{wasm.OpI64Add, func(a, b uint64) uint64 { return a + b }},
		{wasm.OpI64Sub, func(a, b uint64) uint64 { return a - b }},
		{wasm.OpI64Mul, func(a, b uint64) uint64 { return a * b }},
		{wasm.OpI64And, func(a, b uint64) uint64 { return a & b }},
		{wasm.OpI64Or, func(a, b uint64) uint64 { return a | b }},
		{wasm.OpI64Xor, func(a, b uint64) uint64 { return a ^ b }},
		{wasm.OpI64Shl, func(a, b uint64) uint64 { return a << (b & 63) }},
		{wasm.OpI64ShrU, func(a, b uint64) uint64 { return a >> (b & 63) }},
	}
	for trial := 0; trial < 60; trial++ {
		b := wasm.NewModuleBuilder()
		f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		args := []uint64{rng.Uint64(), rng.Uint64()}
		// Host-side mirror evaluation stack.
		sim := []uint64{args[0], args[1]}
		f.LocalGet(0)
		f.LocalGet(1)
		n := 2 + rng.Intn(30)
		for k := 0; k < n; k++ {
			if len(sim) < 2 || rng.Intn(3) == 0 {
				c := rng.Uint64()
				f.I64Const(int64(c))
				sim = append(sim, c)
				continue
			}
			op := ops[rng.Intn(len(ops))]
			f.Op(op.op)
			a, bb := sim[len(sim)-2], sim[len(sim)-1]
			sim = sim[:len(sim)-2]
			sim = append(sim, op.eval(a, bb))
		}
		for len(sim) > 1 {
			f.Op(wasm.OpI64Xor)
			a, bb := sim[len(sim)-2], sim[len(sim)-1]
			sim = sim[:len(sim)-2]
			sim = append(sim, a^bb)
		}
		b.Export("p", wasm.ExternFunc, f.Index)
		got := runAll(t, b.Bytes(), Imports{}, "p", args...)
		if got[0] != sim[0] {
			t.Fatalf("trial %d: got %#x, want %#x", trial, got[0], sim[0])
		}
	}
}

func TestImportErrors(t *testing.T) {
	b := wasm.NewModuleBuilder()
	b.ImportFunc("env", "f", wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	g := b.NewFunc("g", wasm.FuncType{})
	g.I32Const(1)
	g.Call(0)
	b.Export("g", wasm.ExternFunc, g.Index)
	bin := b.Bytes()

	m, err := New(Config{Tier: TierLiftoff}).Compile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Instantiate(Imports{}); err == nil {
		t.Error("missing import not rejected")
	}
	if _, err := m.Instantiate(Imports{Funcs: map[string]*rt.HostFunc{
		"env.f": {Type: wasm.FuncType{Params: []wasm.ValType{wasm.I64}}, Fn: func(*rt.Env, []uint64, []uint64) {}},
	}}); err == nil {
		t.Error("import signature mismatch not rejected")
	}
}

func TestTierPolicyDefersOptimization(t *testing.T) {
	// A TierPolicy veto keeps an adaptive module on baseline code for good,
	// as TierLiftoff would.
	build := func() []byte {
		b := wasm.NewModuleBuilder()
		f := b.NewFunc("work", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add()
		b.Export("work", wasm.ExternFunc, f.Index)
		return b.Bytes()
	}

	var polFuncs, polBytes int
	cfg := Config{Tier: TierAdaptive, TierPolicy: func(numFuncs, codeBytes int) bool {
		polFuncs, polBytes = numFuncs, codeBytes
		return false
	}}
	m, err := New(cfg).Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	if polFuncs != 1 || polBytes <= 0 {
		t.Errorf("policy saw funcs=%d bytes=%d", polFuncs, polBytes)
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	// WaitOptimized must not hang on a vetoed module — there is nothing to
	// wait for.
	if err := m.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	mustCall(t, inst, "work", 1)
	if lo, tf := inst.TierCalls(); lo != 1 || tf != 0 {
		t.Fatalf("vetoed module dispatched liftoff=%d turbofan=%d, want 1/0", lo, tf)
	}
	if st := m.Stats(); st.Turbofan != 0 {
		t.Errorf("vetoed module spent turbofan compile time: %+v", st)
	}
}

func TestTierPolicyApproveMatchesAdaptive(t *testing.T) {
	// A policy that approves is indistinguishable from no policy at all.
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("work", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.LocalGet(0)
	b.Export("work", wasm.ExternFunc, f.Index)

	m, err := New(Config{Tier: TierAdaptive, TierPolicy: func(int, int) bool { return true }}).Compile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(Imports{})
	if err != nil {
		t.Fatal(err)
	}
	mustCall(t, inst, "work", 7)
	if _, tf := inst.TierCalls(); tf != 1 {
		t.Errorf("approved module turbofan calls = %d, want 1", tf)
	}
}

// TestCompileStatsInstrs: each tier reports the instructions it emitted. Both
// compilers target one machine, so the counts compare like with like, though
// not one for one: tier 2 rotates a loop by copying its header to the bottom,
// so it may emit more instructions than tier 1. What the counts must show is
// what each tier does with extra code in the loop: the emitter folds a
// constant expression for both, and only tier 2 drops a value nobody uses.
// The stats are read after a call, which is when an adaptive module compiles
// tier 1.
func TestCompileStatsInstrs(t *testing.T) {
	build := func(extra bool) []byte {
		b := wasm.NewModuleBuilder()
		f := b.NewFunc("sum", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		acc, i := f.AddLocal(wasm.I64), f.AddLocal(wasm.I64)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(i)
		f.LocalGet(0)
		f.Op(wasm.OpI64GeS)
		f.BrIf(1)
		f.LocalGet(acc)
		f.LocalGet(i)
		if extra {
			f.I64Const(2) // loop-invariant: 2 * 3
			f.I64Const(3)
			f.I64Mul()
			f.I64Mul()
		}
		f.I64Add()
		f.LocalSet(acc)
		if extra {
			f.LocalGet(i) // dead
			f.I64Const(7)
			f.I64Add()
			f.Drop()
		}
		f.LocalGet(i)
		f.I64Const(1)
		f.I64Add()
		f.LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(acc)
		b.Export("sum", wasm.ExternFunc, f.Index)
		return b.Bytes()
	}
	var lo, tf [2]int // instructions without and with the extra code
	for x, extra := range []bool{false, true} {
		bin := build(extra)
		for _, tier := range tiers {
			m, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatal(err)
			}
			// An adaptive module compiles tier 1 on the first call.
			inst, err := m.Instantiate(Imports{})
			if err != nil {
				t.Fatal(err)
			}
			mustCall(t, inst, "sum", 3)
			if err := m.WaitOptimized(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if (st.LiftoffInstrs > 0) != (tier != TierTurbofan) || (st.TurbofanInstrs > 0) != (tier != TierLiftoff) {
				t.Errorf("%v: LiftoffInstrs = %d, TurbofanInstrs = %d", tier, st.LiftoffInstrs, st.TurbofanInstrs)
			}
			if tier == TierAdaptive {
				lo[x], tf[x] = st.LiftoffInstrs, st.TurbofanInstrs
			}
		}
	}
	// The folded product is one instruction in either tier, the dead sum one
	// more in tier 1 only.
	if lo[1]-lo[0] != 2 || tf[1]-tf[0] != 1 {
		t.Errorf("the extra code costs liftoff %d → %d and turbofan %d → %d instructions, want +2 and +1",
			lo[0], lo[1], tf[0], tf[1])
	}
}
