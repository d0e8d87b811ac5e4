package turbofan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// executable lists the ops the run loop must dispatch: every row of the
// table except the nop, which linearization removes.
func executable() (list []uint16) {
	for op := range ops {
		if ops[op].kind != kindNone && uint16(op) != tNop {
			list = append(list, uint16(op))
		}
	}
	return list
}

// TestOpcodeSpaceDense guards the jump table behind the dispatch switch. Go
// compiles a switch to one only while the case values span less than four
// times their number; past that it silently falls back to a binary search of
// compares — a first prototype that flagged immediate variants with op|0x400
// lost a third of its speed that way. The test also ties the switch to the
// table: run.go must have exactly one case value per executable op.
func TestOpcodeSpaceDense(t *testing.T) {
	list := executable()
	span := float64(list[len(list)-1] - list[0])
	if ratio := span / float64(len(list)); ratio >= 4 {
		t.Errorf("opcode space too sparse for a jump table: span %v over %d ops = %.2f, must stay below 4",
			span, len(list), ratio)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := -1
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		if sel, ok := sw.Tag.(*ast.SelectorExpr); !ok || sel.Sel.Name != "op" {
			return true
		}
		cases = 0
		for _, c := range sw.Body.List {
			cases += len(c.(*ast.CaseClause).List)
		}
		return false
	})
	if cases != len(list) {
		t.Errorf("run.go dispatches %d case values, the ops table has %d executable ops", cases, len(list))
	}
}

// TestEveryOpDispatches executes each op of the table once; whatever else
// happens, the run loop must know it.
func TestEveryOpDispatches(t *testing.T) {
	for _, op := range executable() {
		func() {
			defer func() {
				if tr, ok := recover().(*rt.TrapError); ok && strings.Contains(tr.Msg, "unknown opcode") {
					t.Errorf("%s (%#x) is in the ops table but not in the run loop", ops[op].name, op)
				}
			}()
			c := &Code{MaxStack: 4, ins: []tin{{op: op, imm: 1}, {op: tRet}}, tables: [][]uint32{nil, {1}}}
			if k := ops[op].kind; k == kindCall || k == kindGlobalGet || k == kindGlobalSet || k.memory() {
				c.ins[0].imm = 0
			}
			env := &rt.Env{Mem: wmem.New(1, 1), Globals: []uint64{0},
				Funcs: []rt.Callee{&rt.HostFunc{Fn: func(*rt.Env, []uint64, []uint64) {}}}}
			c.Call(env, nil, nil)
		}()
	}
}

// listing compiles a one-function module and returns its disassembly without
// the header line.
func listing(t *testing.T, m *wasm.Module) string {
	t.Helper()
	tf, _ := compileBoth(t, m)
	s := tf.String()
	return s[strings.Index(s, "\n")+1:]
}

// TestSelectionForms pins, per form-selection rule of the optimizing compiler
// (the emitter's or value numbering's), one input that must take the new form
// and — where there is one — the neighbouring input that must not.
func TestSelectionForms(t *testing.T) {
	i32, i64 := wasm.I32, wasm.I64
	cases := []struct {
		name    string
		params  []wasm.ValType
		result  wasm.ValType
		body    func(f *wasm.FuncBuilder)
		want    []string // substrings the listing must contain
		wantNot []string // substrings it must not contain
	}{
		{"constant right", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(5)
			f.I32Add()
		}, []string{"i32.add@imm", ", 5"}, []string{"i32.const"}},
		{"constant left commutes", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.I64Const(1 << 40)
			f.LocalGet(0)
			f.Op(wasm.OpI64Xor)
		}, []string{"i64.xor@imm"}, []string{"i64.const"}},
		{"subtracted constant is added", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(1)
			f.I32Sub()
		}, []string{"i32.add@imm", ", -1"}, []string{"i32.sub"}},
		{"constant minuend", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.I64Const(100)
			f.LocalGet(0)
			f.I64Sub()
		}, []string{"i64.rsub@imm", ", 100"}, []string{"i64.sub"}},
		{"multiply by a power of two", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(64)
			f.I32Mul()
		}, []string{"i32.shl@imm", ", 6"}, []string{"mul"}},
		{"multiply by one", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I64Const(1)
			f.I64Mul()
		}, nil, []string{"mul", "i64.const"}},
		{"constant shifted by a register stays", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			f.I32Const(1)
			f.LocalGet(0)
			f.Op(wasm.OpI32Shl)
		}, []string{"i32.shl ", "i32.const"}, []string{"@imm"}},
		{"comparison mirrors", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			f.I32Const(7)
			f.LocalGet(0)
			f.I32LtS()
		}, []string{"i32.gt_s@imm", ", 7"}, nil},
		{"fused branch against a constant", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I64Const(-3)
			f.Op(wasm.OpI64LtU)
			f.If(wasm.BlockOf(i64))
			f.I64Const(1)
			f.Else()
			f.I64Const(2)
			f.End()
		}, []string{"br.i64.ge_u@imm", ", -3 →"}, nil},
		{"fused branch, constant beyond int32", []wasm.ValType{i64}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I64Const(1 << 31)
			f.Op(wasm.OpI64LtS)
			f.If(wasm.BlockOf(i64))
			f.I64Const(1)
			f.Else()
			f.I64Const(2)
			f.End()
		}, []string{"i64.lt_s@imm", ", 2147483648", "br.eqz"}, []string{"br.i64"}},
		{"scaled load", []wasm.ValType{i32}, i64, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.I64Load(4096)
		}, []string{"i64.load@scaled", "[r0<<3 + 4096]"}, []string{"shl"}},
		{"indexed load", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.LocalGet(1)
			f.I32Add()
			f.I32Load8U(2)
		}, []string{"i32.load8_u@indexed", "[r0 + r1 + 2]"}, []string{"i32.add"}},
		{"added constant stays out of the offset", []wasm.ValType{i32}, i32, func(f *wasm.FuncBuilder) {
			// i32.add wraps at 2³², the offset does not: not the same address.
			f.LocalGet(0)
			f.I32Const(56)
			f.I32Add()
			f.I32Load(0)
		}, []string{"i32.add@imm", "i32.load "}, nil},
		{"select with a constant false arm", []wasm.ValType{i32, i32}, i32, func(f *wasm.FuncBuilder) {
			f.LocalGet(0)
			f.I32Const(32)
			f.LocalGet(1)
			f.Select()
		}, []string{"select@imm", ": 32"}, []string{"i32.const"}},
	}
	for _, tc := range cases {
		b := wasm.NewModuleBuilder()
		b.AddMemory(1, 1)
		f := b.NewFunc("f", wasm.FuncType{Params: tc.params, Results: []wasm.ValType{tc.result}})
		tc.body(f)
		got := listing(t, b.Module())
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: listing lacks %q:\n%s", tc.name, w, got)
			}
		}
		for _, w := range tc.wantNot {
			if strings.Contains(got, w) {
				t.Errorf("%s: listing contains %q:\n%s", tc.name, w, got)
			}
		}
	}
}

// TestDestinationForwarding: a local.set is absorbed into the instruction
// that computed the value, and so is a local.tee — the stack copy it leaves
// reads the local.
func TestDestinationForwarding(t *testing.T) {
	build := func(tee bool) string {
		b := wasm.NewModuleBuilder()
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		l := f.AddLocal(wasm.I64)
		f.LocalGet(0)
		f.LocalGet(0)
		f.I64Mul()
		if tee {
			f.LocalTee(l)
			f.LocalGet(0)
			f.Op(wasm.OpI64DivU) // traps on zero: keeps the stack copy alive
			f.Drop()
		} else {
			f.LocalSet(l)
		}
		// A block boundary, so the local is live out of the block that set
		// it and no move can be bypassed.
		f.LocalGet(0)
		f.Op(wasm.OpI64Eqz)
		f.If(wasm.BlockVoid)
		f.Unreachable()
		f.End()
		f.LocalGet(l)
		f.LocalGet(0)
		f.I64Add()
		return listing(t, b.Module())
	}
	if got := build(false); !strings.Contains(got, "i64.mul            r1 ← r0, r0") || strings.Contains(got, "move") {
		t.Errorf("local.set not forwarded:\n%s", got)
	}
	if got := build(true); !strings.Contains(got, "i64.mul            r1 ← r0, r0") || !strings.Contains(got, "i64.div_u          r2 ← r1, r0") || strings.Contains(got, "move") {
		t.Errorf("local.tee not forwarded, or its stack copy does not read the local:\n%s", got)
	}
}

// TestReadModifyWrite: an in-place i64 update fuses, also across the pure
// instructions that compute its addend; an update that stores to a different
// offset does not, nor does one whose loaded value is read again before the
// add — the fused form never writes that register.
func TestReadModifyWrite(t *testing.T) {
	build := func(storeOff uint32, addend func(f *wasm.FuncBuilder)) string {
		b := wasm.NewModuleBuilder()
		b.AddMemory(1, 1)
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I64}})
		f.LocalGet(0)
		f.LocalGet(0)
		f.I64Load(40)
		addend(f)
		f.I64Add()
		f.I64Store(storeOff)
		return listing(t, b.Module())
	}
	param := func(f *wasm.FuncBuilder) { f.LocalGet(1) }
	if got := build(40, param); !strings.Contains(got, "i64.add@mem        [r0 + 40] += r1") || strings.Contains(got, "load") {
		t.Errorf("in-place update not fused:\n%s", got)
	}
	if got := build(40, func(f *wasm.FuncBuilder) { f.I64Const(1) }); !strings.Contains(got, "i64.add@mem@imm    [r0 + 40] += 1") {
		t.Errorf("in-place increment not fused:\n%s", got)
	}
	computed := func(f *wasm.FuncBuilder) {
		f.LocalGet(1)
		f.LocalGet(1)
		f.I64Mul()
	}
	if got := build(40, computed); !strings.Contains(got, "i64.add@mem        [r0 + 40] +=") || strings.Contains(got, "load") {
		t.Errorf("in-place update with a computed addend not fused:\n%s", got)
	}
	if got := build(48, param); strings.Contains(got, "@mem") {
		t.Errorf("update to another slot fused:\n%s", got)
	}
	reread := func(f *wasm.FuncBuilder) {
		f.LocalTee(1)
		f.LocalGet(1)
		f.I64Const(3)
		f.I64Mul()
	}
	if got := build(40, reread); strings.Contains(got, "@mem") || !strings.Contains(got, "i64.load") {
		t.Errorf("update whose addend reads the loaded value lost its load:\n%s", got)
	}
}

// countedLoop builds `for (i = 0; i < n; i++) acc += i` in the shape the
// query compiler emits — header test on top, unconditional back-edge at the
// bottom — with headerInstrs additions to a third local in the header and,
// optionally, a store.
func countedLoop(headerInstrs int, storeInHeader bool) *wasm.Module {
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	acc, i, h := f.AddLocal(wasm.I64), f.AddLocal(wasm.I64), f.AddLocal(wasm.I64)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	for k := 0; k < headerInstrs; k++ {
		f.LocalGet(h)
		f.I64Const(int64(k + 3))
		f.I64Add()
		f.LocalSet(h)
	}
	if storeInHeader {
		f.I32Const(8)
		f.LocalGet(h)
		f.I64Store(0)
	}
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
	f.LocalGet(h)
	f.I64Add()
	return b.Module()
}

// TestLoopRotation: a header of up to maxRotatedHeader pure instructions is
// copied to the bottom of the loop (no jump left, an explicit fuel charge at
// the exit); a longer header or one that writes memory is not. Either way
// both tiers compute the same value and burn the same fuel.
func TestLoopRotation(t *testing.T) {
	for _, tc := range []struct {
		header  int
		store   bool
		rotated bool
	}{{0, false, true}, {1, false, true}, {maxRotatedHeader, false, true}, {maxRotatedHeader + 1, false, false}, {1, true, false}} {
		m := countedLoop(tc.header, tc.store)
		tf, lo := compileBoth(t, m)
		got := tf.String()
		if rotated := strings.Contains(got, "fuel") && !strings.Contains(got, "jump"); rotated != tc.rotated {
			t.Errorf("header of %d (store %v): rotated = %v, want %v:\n%s", tc.header, tc.store, rotated, tc.rotated, got)
		}
		for _, n := range []uint64{0, 1, 2, 9} {
			var res, fuel [2]uint64
			for ti, c := range []rt.Callee{lo, tf} {
				env := &rt.Env{Mem: wmem.New(1, 1), Funcs: []rt.Callee{c}}
				env.SetFuel(1000)
				r := make([]uint64, 1)
				c.Call(env, []uint64{n}, r)
				res[ti], fuel[ti] = r[0], uint64(env.FuelLeft())
			}
			if res[0] != res[1] || fuel[0] != fuel[1] {
				t.Errorf("header of %d, n=%d: liftoff %d (fuel left %d), turbofan %d (fuel left %d)",
					tc.header, n, res[0], fuel[0], res[1], fuel[1])
			}
			if want := 1000 - 1 - n; fuel[0] != want {
				t.Errorf("n=%d: fuel left %d, want %d (one unit per call and per completed iteration)", n, fuel[0], want)
			}
		}
	}
}
