package turbofan

import (
	"strings"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// compileOne builds a single-function module and compiles it with the
// baseline compiler.
func compileOne(t *testing.T, build func(f *wasm.FuncBuilder), ft wasm.FuncType) *Code {
	t.Helper()
	b := wasm.NewModuleBuilder()
	f := b.NewFunc("f", ft)
	build(f)
	m := b.Module()
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	c, err := CompileBaseline(m, &m.Funcs[0])
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func call1(t *testing.T, c *Code, args ...uint64) uint64 {
	t.Helper()
	env := &rt.Env{Funcs: []rt.Callee{c}}
	res := make([]uint64, c.NResults)
	c.Call(env, args, res)
	if len(res) == 0 {
		return 0
	}
	return res[0]
}

func TestDeadCodeSkipped(t *testing.T) {
	// Code after br is dead and must not be translated into the stream in a
	// way that breaks heights.
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		f.Block(wasm.BlockOf(wasm.I32))
		f.I32Const(1)
		f.Br(0)
		// dead, stack-polymorphic garbage
		f.I32Add()
		f.I32Add()
		f.End()
	}, wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	if got := call1(t, c); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestIfWithoutElseDead(t *testing.T) {
	// then-arm ends in br; the false path must fall through to end.
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		out := f.AddLocal(wasm.I32)
		f.Block(wasm.BlockVoid)
		f.LocalGet(0)
		f.If(wasm.BlockVoid)
		f.I32Const(10)
		f.LocalSet(out)
		f.Br(1)
		f.End()
		f.I32Const(20)
		f.LocalSet(out)
		f.End()
		f.LocalGet(out)
	}, wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	if got := call1(t, c, 1); got != 10 {
		t.Errorf("taken: %d", got)
	}
	if got := call1(t, c, 0); got != 20 {
		t.Errorf("not taken: %d", got)
	}
}

func TestBranchWithValueUnwinding(t *testing.T) {
	// br carrying a value out of a block with extra stack entries forces
	// the unwind path.
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		f.Block(wasm.BlockOf(wasm.I32))
		f.I32Const(7) // extra stack entry below the result
		f.I32Const(42)
		f.LocalGet(0)
		f.BrIf(0)  // if p0: return 42 with height mismatch → unwind
		f.I32Add() // else 7+42 = 49
		f.End()
	}, wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	if got := call1(t, c, 1); got != 42 {
		t.Errorf("taken: %d", got)
	}
	if got := call1(t, c, 0); got != 49 {
		t.Errorf("fallthrough: %d", got)
	}
}

func TestNestedLoops(t *testing.T) {
	// sum of i*j for i,j in [0,n)
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		n := f.Param(0)
		i := f.AddLocal(wasm.I64)
		j := f.AddLocal(wasm.I64)
		acc := f.AddLocal(wasm.I64)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(i)
		f.LocalGet(n)
		f.Op(wasm.OpI64GeS)
		f.BrIf(1)
		f.I64Const(0)
		f.LocalSet(j)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(j)
		f.LocalGet(n)
		f.Op(wasm.OpI64GeS)
		f.BrIf(1)
		f.LocalGet(acc)
		f.LocalGet(i)
		f.LocalGet(j)
		f.I64Mul()
		f.I64Add()
		f.LocalSet(acc)
		f.LocalGet(j)
		f.I64Const(1)
		f.I64Add()
		f.LocalSet(j)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(i)
		f.I64Const(1)
		f.I64Add()
		f.LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(acc)
	}, wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	n := int64(20)
	want := uint64((n * (n - 1) / 2) * (n * (n - 1) / 2))
	if got := call1(t, c, uint64(n)); got != want {
		t.Errorf("got %d want %d", got, want)
	}
}

func TestCompileIsCheap(t *testing.T) {
	// The baseline compiler is a single pass: values that are pushed and
	// dropped without being used cost no instruction, and MaxStack stays
	// bounded.
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		for i := 0; i < 100; i++ {
			f.I32Const(int32(i))
			f.Drop()
		}
		f.I32Const(0)
	}, wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	if len(c.ins) > 2 {
		t.Errorf("instruction blowup: %d", len(c.ins))
	}
	if c.MaxStack > 4 {
		t.Errorf("MaxStack = %d", c.MaxStack)
	}
}

// TestBranchToFunctionLabel: a br that targets the function's own label is a
// return — with its result moved to the result register when the stack is
// higher than that — and the function's end stays a valid target when the
// code in front of it is unreachable.
func TestBranchToFunctionLabel(t *testing.T) {
	c := compileOne(t, func(f *wasm.FuncBuilder) {
		f.I32Const(7) // below the result
		f.I32Const(42)
		f.LocalGet(0)
		f.BrIf(0)
		f.Drop()
		f.Drop()
		f.I32Const(9)
		f.Br(0)
	}, wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	if got := call1(t, c, 1); got != 42 {
		t.Errorf("taken: %d", got)
	}
	if got := call1(t, c, 0); got != 9 {
		t.Errorf("not taken: %d", got)
	}
}

// TestAbstractStack pins the emitter's rules as listings: what each one saves
// and the instruction it must still emit where it does not apply.
func TestAbstractStack(t *testing.T) {
	i32, i64 := wasm.I32, wasm.I64
	cases := []struct {
		name   string
		params []wasm.ValType
		result wasm.ValType
		body   func(f *wasm.FuncBuilder)
		want   string
	}{
		{"local and constant operands cost nothing", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(5)
			f.I32Add()
			f.LocalGet(1)
			f.I32Mul()
		}, `
   0  i32.add@imm        r2 ← r0, 5
   1  i32.mul            r2 ← r2, r1
   2  return             
`},
		{"local.set forwards the destination", []wasm.ValType{i64, i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.LocalGet(1)
			f.I64Add()
			f.LocalSet(1)
			f.LocalGet(1)
		}, `
   0  i64.add            r1 ← r0, r1
   1  move               r2 ← r1
   2  return             
`},
		{"local.tee forwards and leaves an alias", []wasm.ValType{i64, i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I64Const(3)
			f.I64Mul()
			f.LocalTee(1)
			f.LocalGet(0)
			f.I64Add()
		}, `
   0  i64.mul@imm        r1 ← r0, 3
   1  i64.add            r2 ← r1, r0
   2  return             
`},
		{"an alias is saved before its local is overwritten", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0) // the old value of local 0
			f.LocalGet(1)
			f.LocalSet(0)
			f.LocalGet(0)
			f.I32Sub()
		}, `
   0  move               r2 ← r0
   1  move               r0 ← r1
   2  i32.sub            r2 ← r2, r0
   3  return             
`},
		{"no forwarding across an alias save", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Const(1)
			f.I32Add()
			f.LocalSet(0)
			f.LocalGet(0)
			f.I32Sub()
		}, `
   0  i32.add@imm        r3 ← r1, 1
   1  move               r2 ← r0
   2  move               r0 ← r3
   3  i32.sub            r2 ← r2, r0
   4  return             
`},
		{"no forwarding of a value below the top", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Eqz()
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Add()
			f.Drop()
			f.LocalSet(1)
			f.LocalGet(1)
		}, `
   0  i32.eqz            r2 ← r0
   1  i32.add            r3 ← r0, r1
   2  move               r1 ← r2
   3  move               r2 ← r1
   4  return             
`},
		{"constant on the left", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.I64Const(100)
			f.LocalGet(0)
			f.I64Sub()
			f.I64Const(7)
			f.LocalGet(0)
			f.Op(wasm.OpI64LtS)
			f.Op(wasm.OpI64ExtendI32U)
			f.I64Add()
			f.I64Const(2)
			f.LocalGet(0)
			f.Op(wasm.OpI64Shl) // no mirror: the constant is loaded
			f.I64Add()
		}, `
   0  i64.rsub@imm       r1 ← r0, 100
   1  i64.gt_s@imm       r2 ← r0, 7
   2  i64.extend_i32_u   r2 ← r2
   3  i64.add            r1 ← r1, r2
   4  i64.const          r2 ← 2
   5  i64.shl            r2 ← r2, r0
   6  i64.add            r1 ← r1, r2
   7  return             
`},
		{"both operands constant: folded unless it traps", nil, i32, func(f *wasm.FuncBuilder) {
			f.I32Const(6)
			f.I32Const(35)
			f.Op(wasm.OpI32Shl)
			f.I32Const(3)
			f.I32Const(0)
			f.Op(wasm.OpI32DivU)
			f.I32Add()
		}, `
   0  i32.const          r1 ← 3
   1  i32.const          r2 ← 0
   2  i32.div_u          r1 ← r1, r2
   3  i32.add@imm        r0 ← r1, 48
   4  return             
`},
		{"a local set to a constant is one until control", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.I64Const(3)
			f.LocalSet(f.AddLocal(i64))
			f.LocalGet(0)
			f.LocalGet(1)
			f.I64Mul()
			f.LocalGet(1)
			f.I64Const(4)
			f.I64Add()
			f.I64Add()
			f.Block(wasm.BlockVoid)
			f.End()
			f.LocalGet(1)
			f.I64Add()
		}, `
   0  i64.const          r1 ← 3
   1  i64.mul@imm        r2 ← r0, 3
   2  i64.add@imm        r2 ← r2, 7
   3  i64.add            r2 ← r2, r1
   4  return             
`},
		{"a comparison feeding br_if or if is its branch", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.Block(wasm.BlockVoid)
			f.LocalGet(0)
			f.I32Const(9)
			f.I32LtS()
			f.BrIf(0)
			f.LocalGet(0)
			f.LocalGet(1)
			f.Op(wasm.OpI32GeU)
			f.BrIf(0)
			f.LocalGet(1)
			f.I32Eqz()
			f.If(wasm.BlockVoid)
			f.I32Const(1)
			f.LocalSet(0)
			f.End()
			f.End()
			f.LocalGet(0)
		}, `
   0  br.i32.lt_s@imm    r0, 9 → @4
   1  br.i32.ge_u        r0, r1 → @4
   2  br.nez             r1 → @4
   3  i32.const          r0 ← 1
   4  move               r2 ← r0
   5  return             
`},
		{"select with a constant condition keeps one arm", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Const(1)
			f.Select()
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Mul()
			f.I32Const(0)
			f.Select()
		}, `
   0  i32.mul            r3 ← r0, r1
   1  move               r2 ← r3
   2  return             
`},
		{"scaled load only right behind the shift", []wasm.ValType{i32}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.I64Load(64)
			f.LocalGet(0)
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.LocalGet(0)
			f.I32Eqz()
			f.Drop()
			f.I64Load(64)
			f.I64Add()
		}, `
   0  i64.load@scaled    r1 ← [r0<<3 + 64]
   1  i32.shl@imm        r2 ← r0, 3
   2  i32.eqz            r3 ← r0
   3  i64.load           r2 ← [r2 + 64]
   4  i64.add            r1 ← r1, r2
   5  return             
`},
		{"br_if with nothing to unwind is one branch", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.Block(wasm.BlockOf(i32))
			f.LocalGet(0)
			f.LocalGet(1)
			f.BrIf(0)
			f.Drop()
			f.I32Const(4)
			f.End()
		}, `
   0  move               r2 ← r0
   1  br.nez             r1 → @3
   2  i32.const          r2 ← 4
   3  return             
`},
		{"control flushes the stack", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(9)
			f.LocalGet(1)
			f.If(wasm.BlockVoid)
			f.I32Const(1)
			f.LocalSet(0)
			f.End()
			f.I32Add()
		}, `
   0  move               r2 ← r0
   1  i32.const          r3 ← 9
   2  br.eqz             r1 → @4
   3  i32.const          r0 ← 1
   4  i32.add            r2 ← r2, r3
   5  return             
`},
		{"a call flushes its arguments only", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.LocalGet(0)
			f.I64Const(1)
			f.I64Add()
			f.Call(0)
			f.I64Add()
		}, `
   0  i64.add@imm        r2 ← r0, 1
   1  call               f0 r2, 1 args, 1 results
   2  i64.add            r1 ← r0, r2
   3  return             
`},
		{"select takes a constant false arm", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(32)
			f.LocalGet(1)
			f.Select()
			f.I32Const(5)
			f.LocalGet(0)
			f.LocalGet(1)
			f.Select()
			f.I32Add()
		}, `
   0  select@imm         r2 ← r1 ? r0 : 32
   1  i32.const          r3 ← 5
   2  select             r3 ← r1 ? r3 : r0
   3  i32.add            r2 ← r2, r3
   4  return             
`},
	}
	for _, tc := range cases {
		c := compileOne(t, tc.body, wasm.FuncType{Params: tc.params, Results: []wasm.ValType{tc.result}})
		if name := OutsideBaseline(c); name != "" {
			t.Errorf("%s: emitted %s, an optimizer-only form", tc.name, name)
		}
		got := c.String()
		if got = got[strings.Index(got, "\n"):]; got != tc.want {
			t.Errorf("%s:%s\nwant:%s", tc.name, got, tc.want)
		}
	}
}
