package turbofan

import (
	"math"
	"strings"
	"testing"

	"wasmdb/internal/wasm"
)

// TestValueNumbering pins what value numbering (vn.go) makes of small
// functions p(x i64, y i64) i64 — local 2 is an i64, local 3 an i32 — in the
// optimizing compiler's listing: which reload it removes, which kill keeps
// one, which conjunction becomes a range test and which does not.
func TestValueNumbering(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(f *wasm.FuncBuilder)
		want string
	}{
		{"a reload whose register was overwritten: the load writes the reload's register", func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I64Load(16)
			f.I64Const(5)
			f.I64Add()
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I64Load(16)
			f.Op(wasm.OpI64Xor)
		}, `
2 params, 4 locals, 2 stack slots, 5 instructions
   0  i32.wrap_i64       r5 ← r1
   1  i64.load           r5 ← [r5 + 16]
   2  i64.add@imm        r4 ← r5, 5
   3  i64.xor            r4 ← r4, r5
   4  return
`},
		{"a store keeps the reload, the address moves to a fresh register", func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I64Load(16)
			f.I32Const(64)
			f.LocalGet(0)
			f.I64Store(0)
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I64Load(16)
			f.Op(wasm.OpI64Xor)
		}, `
2 params, 4 locals, 4 stack slots, 7 instructions
   0  i32.wrap_i64       r7 ← r1
   1  i64.load           r4 ← [r7 + 16]
   2  i32.const          r5 ← 64
   3  i64.store          [r5 + 0] ← r0
   4  i64.load           r5 ← [r7 + 16]
   5  i64.xor            r4 ← r4, r5
   6  return
`},
		{"i64.load8_u reads what i32.load8_u read", func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I32Load8U(3)
			f.Op(wasm.OpI64ExtendI32U)
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.Emit(wasm.OpI64Load8U, 3, 0)
			f.I64Add()
		}, `
2 params, 4 locals, 2 stack slots, 5 instructions
   0  i32.wrap_i64       r5 ← r1
   1  i32.load8_u        r5 ← [r5 + 3]
   2  i64.extend_i32_u   r4 ← r5
   3  i64.add            r4 ← r4, r5
   4  return
`},
		{"global.get after global.set reads the stored register", func(f *wasm.FuncBuilder) {
			f.GlobalGet(0)
			f.LocalGet(0)
			f.I64Add()
			f.GlobalSet(0)
			f.GlobalGet(0)
			f.LocalGet(1)
			f.I64Mul()
		}, `
2 params, 4 locals, 2 stack slots, 5 instructions
   0  global.get         r4 ← g0
   1  i64.add            r4 ← r4, r0
   2  global.set         g0 ← r4
   3  i64.mul            r4 ← r4, r1
   4  return
`},
		{"a range test feeding a branch", func(f *wasm.FuncBuilder) {
			f.Block(wasm.BlockOf(wasm.I64))
			f.LocalGet(0)
			f.LocalGet(1)
			f.I64Const(10)
			f.Op(wasm.OpI64GeS)
			f.LocalGet(1)
			f.I64Const(20)
			f.Op(wasm.OpI64LtS)
			f.I32And()
			f.BrIf(0)
			f.Drop()
			f.I64Const(7)
			f.End()
		}, `
2 params, 4 locals, 4 stack slots, 5 instructions
   0  i64.add@imm        r5 ← r1, -10
   1  move               r4 ← r0
   2  br.i64.le_u@imm    r5, 9 → @4
   3  i64.const          r4 ← 7
   4  return
`},
		{"a range test at the end of an and chain", func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.Op(wasm.OpI32WrapI64)
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I32Const(math.MinInt32 + 1)
			f.Op(wasm.OpI32GtS)
			f.I32And()
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I32Const(math.MaxInt32)
			f.Op(wasm.OpI32LeS)
			f.I32And()
			f.Op(wasm.OpI64ExtendI32U)
		}, `
2 params, 4 locals, 6 stack slots, 7 instructions
   0  i32.wrap_i64       r8 ← r0
   1  i32.wrap_i64       r7 ← r1
   2  i32.add@imm        r9 ← r7, 2147483646
   3  i32.le_u@imm       r9 ← r9, -3
   4  i32.and            r4 ← r8, r9
   5  i64.extend_i32_u   r4 ← r4
   6  return
`},
		{"an empty range and a strict bound at the limit are no range", func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.I64Const(8)
			f.Op(wasm.OpI64GeS)
			f.LocalGet(1)
			f.I64Const(7)
			f.Op(wasm.OpI64LeS)
			f.I32And()
			f.LocalGet(1)
			f.I64Const(math.MaxInt64)
			f.Op(wasm.OpI64GtS)
			f.LocalGet(1)
			f.I64Const(9)
			f.Op(wasm.OpI64LeS)
			f.I32And()
			f.I32Or()
			f.Op(wasm.OpI64ExtendI32U)
		}, `
2 params, 4 locals, 4 stack slots, 9 instructions
   0  i64.ge_s@imm       r4 ← r1, 8
   1  i64.le_s@imm       r5 ← r1, 7
   2  i32.and            r4 ← r4, r5
   3  i64.gt_s@imm       r5 ← r1, 9223372036854775807
   4  i64.le_s@imm       r6 ← r1, 9
   5  i32.and            r5 ← r5, r6
   6  i32.or             r4 ← r4, r5
   7  i64.extend_i32_u   r4 ← r4
   8  return
`},
		{"bounds of two widths are no range", func(f *wasm.FuncBuilder) {
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.I32Load(0)
			f.I32Const(-5)
			f.Op(wasm.OpI32GeS)
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			f.Emit(wasm.OpI64Load32U, 0, 0)
			f.I64Const(100)
			f.Op(wasm.OpI64LeS)
			f.I32And()
			f.Op(wasm.OpI64ExtendI32U)
		}, `
2 params, 4 locals, 3 stack slots, 7 instructions
   0  i32.wrap_i64       r5 ← r1
   1  i32.load           r5 ← [r5 + 0]
   2  i32.ge_s@imm       r4 ← r5, -5
   3  i64.le_s@imm       r5 ← r5, 100
   4  i32.and            r4 ← r4, r5
   5  i64.extend_i32_u   r4 ← r4
   6  return
`},
	} {
		got := vnListing(t, c.body)
		if got != c.want {
			t.Errorf("%s:\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

func vnListing(t *testing.T, body func(f *wasm.FuncBuilder)) string {
	t.Helper()
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 1)
	b.AddGlobal(wasm.I64, true, 0)
	f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	f.AddLocal(wasm.I64)
	f.AddLocal(wasm.I32)
	body(f)
	m := b.Module()
	tf, _ := compileBoth(t, m)
	lines := strings.Split(strings.TrimPrefix(tf.String(), "func \"p\": "), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return "\n" + strings.Join(lines, "\n")
}
