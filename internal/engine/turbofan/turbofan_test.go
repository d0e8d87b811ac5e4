package turbofan

import (
	"math/rand"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// compileBoth compiles the module's first function with the optimizing and
// with the baseline compiler.
func compileBoth(t *testing.T, m *wasm.Module) (tf, lo *Code) {
	t.Helper()
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	tf, err := Compile(m, &m.Funcs[0])
	if err != nil {
		t.Fatalf("turbofan: %v", err)
	}
	lo, err = CompileBaseline(m, &m.Funcs[0])
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return tf, lo
}

// TestConstantFolding checks that a constant expression folds away in the
// emitter, so in either compiler's code: a constant load and the return.
func TestConstantFolding(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValType{wasm.I64}})
	// ((((1+2)*3)+4)*5) — all constant.
	f.I64Const(1)
	f.I64Const(2)
	f.I64Add()
	f.I64Const(3)
	f.I64Mul()
	f.I64Const(4)
	f.I64Add()
	f.I64Const(5)
	f.I64Mul()
	m := b.Module()
	tf, lo := compileBoth(t, m)
	for _, c := range []*Code{tf, lo} {
		if len(c.ins) > 2 {
			t.Errorf("constants not folded:\n%s", c)
		}
		res := make([]uint64, 1)
		c.Call(&rt.Env{Funcs: []rt.Callee{c}}, nil, res)
		if res[0] != 65 {
			t.Errorf("folded value = %d", res[0])
		}
	}
}

// TestBranchFusion checks that a comparison feeding a branch becomes one
// compare-and-branch in either compiler's code, with no comparison left.
func TestBranchFusion(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
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
	m := b.Module()
	tf, lo := compileBoth(t, m)

	for _, c := range []*Code{tf, lo} {
		fused := false
		for _, in := range c.ins {
			switch ops[in.op].kind {
			case kindBrCmp, kindBrCmpImm:
				fused = true
			case kindBrIf:
				t.Errorf("unfused branch left:\n%s", c)
			}
			if in.op == uint16(wasm.OpI64GeS) {
				t.Errorf("comparison left:\n%s", c)
			}
		}
		if !fused {
			t.Errorf("no fused compare-and-branch emitted:\n%s", c)
		}
	}

	// Agreement with liftoff on values.
	for _, n := range []uint64{0, 1, 5, 1000} {
		env := &rt.Env{Funcs: []rt.Callee{tf}}
		r1 := make([]uint64, 1)
		tf.Call(env, []uint64{n}, r1)
		env2 := &rt.Env{Funcs: []rt.Callee{lo}}
		r2 := make([]uint64, 1)
		lo.Call(env2, []uint64{n}, r2)
		if r1[0] != r2[0] {
			t.Errorf("n=%d: turbofan %d vs liftoff %d", n, r1[0], r2[0])
		}
	}
}

// TestRandomControlFlowDifferential generates random programs with nested
// blocks, branches, and arithmetic, and checks tier agreement.
func TestRandomControlFlowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		b := wasm.NewModuleBuilder()
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		l1 := f.AddLocal(wasm.I64)
		l2 := f.AddLocal(wasm.I64)

		// Seed locals from params.
		f.LocalGet(0)
		f.LocalSet(l1)
		f.LocalGet(1)
		f.LocalSet(l2)

		// A few random if/else arithmetic steps.
		steps := 1 + rng.Intn(5)
		for s := 0; s < steps; s++ {
			f.LocalGet(l1)
			f.I64Const(int64(rng.Intn(100)))
			f.Op([]wasm.Opcode{wasm.OpI64LtS, wasm.OpI64GtS, wasm.OpI64Eq}[rng.Intn(3)])
			f.If(wasm.BlockVoid)
			f.LocalGet(l1)
			f.LocalGet(l2)
			f.Op([]wasm.Opcode{wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64Xor}[rng.Intn(4)])
			f.LocalSet(l1)
			if rng.Intn(2) == 0 {
				f.Else()
				f.LocalGet(l2)
				f.I64Const(int64(rng.Intn(50) + 1))
				f.Op([]wasm.Opcode{wasm.OpI64Add, wasm.OpI64ShrU}[rng.Intn(2)])
				f.LocalSet(l2)
			}
			f.End()
		}
		// Bounded loop mixing both locals.
		iter := f.AddLocal(wasm.I64)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(iter)
		f.I64Const(int64(rng.Intn(20) + 1))
		f.Op(wasm.OpI64GeS)
		f.BrIf(1)
		f.LocalGet(l1)
		f.I64Const(3)
		f.I64Mul()
		f.LocalGet(l2)
		f.I64Add()
		f.LocalSet(l1)
		f.LocalGet(iter)
		f.I64Const(1)
		f.I64Add()
		f.LocalSet(iter)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(l1)
		f.LocalGet(l2)
		f.Op(wasm.OpI64Xor)

		m := b.Module()
		tf, lo := compileBoth(t, m)
		for probe := 0; probe < 4; probe++ {
			args := []uint64{rng.Uint64() % 1000, rng.Uint64() % 1000}
			r1 := make([]uint64, 1)
			r2 := make([]uint64, 1)
			tf.Call(&rt.Env{Funcs: []rt.Callee{tf}}, args, r1)
			lo.Call(&rt.Env{Funcs: []rt.Callee{lo}}, args, r2)
			if r1[0] != r2[0] {
				t.Fatalf("trial %d args %v: turbofan %d vs liftoff %d", trial, args, r1[0], r2[0])
			}
		}
	}
}

// TestDCERemovesDeadArithmetic: dropped pure computations disappear.
func TestDCERemovesDeadArithmetic(t *testing.T) {
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	for i := 0; i < 30; i++ {
		f.LocalGet(0)
		f.I64Const(int64(i))
		f.I64Mul()
		f.Drop()
	}
	f.LocalGet(0)
	m := b.Module()
	tf, _ := compileBoth(t, m)
	if len(tf.ins) > 6 {
		t.Errorf("dead arithmetic survived: %d instructions", len(tf.ins))
	}
}
