package wasm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// buildTestModule constructs a module exercising most builder features:
// imports, memory, globals, control flow, memory ops, calls, and exports.
func buildTestModule() *ModuleBuilder { return buildTestModuleInto(NewModuleBuilder()) }

// buildTestModuleInto builds buildTestModule's module into the empty builder
// b.
func buildTestModuleInto(b *ModuleBuilder) *ModuleBuilder {
	logIdx := b.ImportFunc("env", "log", FuncType{Params: []ValType{I32}})
	b.ImportMemory("env", "memory", 1, 16)
	gCounter := b.AddGlobal(I32, true, 0)

	// add(a, b) = a + b
	add := b.NewFunc("add", FuncType{Params: []ValType{I32, I32}, Results: []ValType{I32}})
	add.LocalGet(add.Param(0))
	add.LocalGet(add.Param(1))
	add.I32Add()

	// sumTo(n): loop accumulating 1..n, calls log(n), bumps global.
	f := b.NewFunc("sumTo", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	acc := f.AddLocal(I32)
	i := f.AddLocal(I32)
	f.LocalGet(f.Param(0))
	f.Call(logIdx)
	f.GlobalGet(gCounter)
	f.I32Const(1)
	f.I32Add()
	f.GlobalSet(gCounter)
	f.Block(BlockVoid)
	f.Loop(BlockVoid)
	f.LocalGet(i)
	f.LocalGet(f.Param(0))
	f.Op(OpI32GeS)
	f.BrIf(1)
	f.LocalGet(i)
	f.I32Const(1)
	f.I32Add()
	f.LocalTee(i)
	f.LocalGet(acc)
	f.I32Add()
	f.LocalSet(acc)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)

	// store/load roundtrip through memory.
	g := b.NewFunc("mem", FuncType{Params: []ValType{I32, I64}, Results: []ValType{I64}})
	g.LocalGet(g.Param(0))
	g.LocalGet(g.Param(1))
	g.I64Store(8)
	g.LocalGet(g.Param(0))
	g.I64Load(8)

	b.Export("add", ExternFunc, add.Index)
	b.Export("sumTo", ExternFunc, f.Index)
	b.Export("mem", ExternFunc, g.Index)
	b.AddData(64, []byte("hello wasm"))
	return b
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	b := buildTestModule()
	m1 := b.Module()
	bytes1 := Encode(m1)

	m2, err := Decode(bytes1)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := Validate(m2); err != nil {
		t.Fatalf("Validate decoded: %v", err)
	}

	// Structural comparison (names are not decoded; clear them).
	m1c := *m1
	m1c.Funcs = append([]Func(nil), m1.Funcs...)
	for i := range m1c.Funcs {
		m1c.Funcs[i].Name = ""
	}
	if !reflect.DeepEqual(m1c.Types, m2.Types) {
		t.Errorf("types differ: %v vs %v", m1c.Types, m2.Types)
	}
	if !reflect.DeepEqual(m1c.Imports, m2.Imports) {
		t.Errorf("imports differ")
	}
	if len(m1c.Funcs) != len(m2.Funcs) {
		t.Fatalf("func count differs: %d vs %d", len(m1c.Funcs), len(m2.Funcs))
	}
	for i := range m1c.Funcs {
		f1, f2 := m1c.Funcs[i], m2.Funcs[i]
		if f1.Type != f2.Type || !reflect.DeepEqual(f1.Locals, f2.Locals) {
			t.Errorf("func %d header differs", i)
		}
		if !bytes.Equal(f1.Code, f2.Code) {
			t.Errorf("func %d code differs:\n%x\nvs\n%x", i, f1.Code, f2.Code)
		}
	}
	if !reflect.DeepEqual(m1c.Exports, m2.Exports) {
		t.Errorf("exports differ")
	}
	if !reflect.DeepEqual(m1c.Globals, m2.Globals) {
		t.Errorf("globals differ")
	}
	if !reflect.DeepEqual(m1c.Data, m2.Data) {
		t.Errorf("data differs")
	}

	// Re-encoding the decoded module must be byte-identical modulo the name
	// section, which the decoder drops.
	bytes2 := Encode(m2)
	stripped := Encode(&m1c)
	if string(bytes2) != string(stripped) {
		t.Errorf("re-encoded bytes differ (%d vs %d bytes)", len(bytes2), len(stripped))
	}

	// Decoded bodies share one copy of the code section; appending to one
	// must not write into the next.
	if len(m2.Funcs) < 2 {
		t.Fatal("test module needs two functions")
	}
	next := append([]byte(nil), m2.Funcs[1].Code...)
	_ = append(m2.Funcs[0].Code, make([]byte, 64)...)
	if !bytes.Equal(m2.Funcs[1].Code, next) {
		t.Errorf("appending to func 0's code changed func 1's code")
	}
}

func TestValidateBuiltModule(t *testing.T) {
	m := buildTestModule().Module()
	if err := Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		[]byte("not a wasm module"),
		{0x00, 0x61, 0x73, 0x6D, 0x02, 0x00, 0x00, 0x00},       // bad version
		{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, 0xFF}, // bad section
		// A type section whose size was raised by one, with a trailing 0x00.
		{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, 0x01, 0x05, 0x01, 0x60, 0x00, 0x00, 0x00},
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestValidateRejectsMalformedBodies checks that a function body stays bytes
// through Decode, however malformed, and that Validate rejects each way an
// instruction encoding can be wrong.
func TestValidateRejectsMalformedBodies(t *testing.T) {
	cases := []struct {
		name string
		code []byte
		want string
	}{
		{"unknown opcode", []byte{0xFF, 0x0B}, "unknown opcode 0xff"},
		{"bad block type", []byte{0x02, 0x01, 0x0B, 0x0B}, "invalid block type 0x01"},
		{"non-zero table byte", []byte{0x41, 0x00, 0x11, 0x00, 0x01, 0x0B}, "non-zero table index"},
		{"non-zero memory byte", []byte{0x3F, 0x01, 0x1A, 0x0B}, "non-zero memory index"},
		{"LEB overflow", []byte{0x41, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x1A, 0x0B}, "malformed LEB128"},
		{"LEB overflow in a memarg offset", []byte{0x41, 0x00, 0x28, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x1A, 0x0B}, "malformed LEB128"},
		{"br_table without default", []byte{0x41, 0x00, 0x0E, 0x01, 0x00}, "malformed LEB128"},
		{"br_table longer than the body", []byte{0x41, 0x00, 0x0E, 0x09, 0x00, 0x0B}, "unexpected end"},
		{"truncated immediate", []byte{0x44, 0x00, 0x00}, "unexpected end"},
		{"missing final end", []byte{0x02, 0x40, 0x0B}, "missing end"},
		{"empty body", nil, "missing end"},
		{"trailing bytes", []byte{0x0B, 0x01}, "trailing bytes after body"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewModuleBuilder()
			b.AddMemory(1, 1)
			b.NewFunc("f", FuncType{})
			m := b.Module()
			m.HasTable, m.TableMin = true, 1
			m.Funcs[0].Code = c.code
			d, err := Decode(Encode(m))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(d.Funcs[0].Code, c.code) {
				t.Fatalf("decoded code %x, want %x", d.Funcs[0].Code, c.code)
			}
			if err := Validate(d); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestValidateRejectsImpossibleMemoryLimits checks defined and imported
// memories: a minimum above the maximum, or a limit above 65 536 pages, is
// rejected after Decode; the largest possible limits are accepted.
func TestValidateRejectsImpossibleMemoryLimits(t *testing.T) {
	for _, c := range []struct {
		l  Limits
		ok bool
	}{
		{Limits{Min: 10, Max: 5, HasMax: true}, false},
		{Limits{Min: 1, Max: 65537, HasMax: true}, false},
		{Limits{Min: 65537}, false},
		{Limits{Min: 65536, Max: 65536, HasMax: true}, true},
		{Limits{Min: 65536}, true},
	} {
		for _, imported := range []bool{false, true} {
			b := NewModuleBuilder()
			if imported {
				b.ImportMemory("env", "memory", 0, 0)
			} else {
				b.AddMemory(0, 0)
			}
			m := b.Module()
			if imported {
				m.Imports[0].Mem = c.l
			} else {
				m.Memory = c.l
			}
			d, err := Decode(Encode(m))
			if err != nil {
				t.Fatalf("%+v imported=%v: Decode: %v", c.l, imported, err)
			}
			if err := Validate(d); (err == nil) != c.ok {
				t.Errorf("%+v imported=%v: Validate = %v, want ok=%v", c.l, imported, err, c.ok)
			}
		}
	}
}

func TestDecodeRejectsTruncatedModule(t *testing.T) {
	full := buildTestModule().Bytes()
	for n := 9; n < len(full); n += 7 {
		if _, err := Decode(full[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestWATPrint(t *testing.T) {
	m := buildTestModule().Module()
	s := Print(m)
	for _, want := range []string{"(module", "i32.add", "loop", "br_if 1", "(export \"sumTo\"", "i64.store offset=8", "global.set 0", "call 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("WAT output missing %q:\n%s", want, s)
		}
	}
}

func TestValidatorRejectsTypeErrors(t *testing.T) {
	mk := func(build func(f *FuncBuilder)) *Module {
		b := NewModuleBuilder()
		f := b.NewFunc("bad", FuncType{Results: []ValType{I32}})
		build(f)
		return b.Module()
	}
	cases := []struct {
		name  string
		build func(f *FuncBuilder)
	}{
		{"empty body for i32 result", func(f *FuncBuilder) {}},
		{"f64 for i32 result", func(f *FuncBuilder) { f.F64Const(1) }},
		{"add with one operand", func(f *FuncBuilder) { f.I32Const(1); f.I32Add() }},
		{"mixed-type add", func(f *FuncBuilder) { f.I32Const(1); f.I64Const(2); f.Op(OpI64Add) }},
		{"branch depth out of range", func(f *FuncBuilder) { f.I32Const(1); f.Emit(OpBr, 5, 0) }},
		{"local out of range", func(f *FuncBuilder) { f.Emit(OpLocalGet, 3, 0) }},
		{"global out of range", func(f *FuncBuilder) { f.Emit(OpGlobalGet, 0, 0) }},
		{"call out of range", func(f *FuncBuilder) { f.Emit(OpCall, 99, 0); f.I32Const(0) }},
		{"leftover stack value", func(f *FuncBuilder) { f.I32Const(1); f.I32Const(2) }},
		{"select type mismatch", func(f *FuncBuilder) {
			f.I32Const(1)
			f.F64Const(2)
			f.I32Const(0)
			f.Select()
			f.Drop()
			f.I32Const(0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Validate(mk(c.build)); err == nil {
				t.Errorf("validator accepted %s", c.name)
			}
		})
	}
}

func TestValidatorAcceptsUnreachableCode(t *testing.T) {
	b := NewModuleBuilder()
	f := b.NewFunc("f", FuncType{Results: []ValType{I32}})
	f.I32Const(7)
	f.Return()
	// Dead code after return is stack-polymorphic.
	f.I32Add()
	f.Drop()
	if err := Validate(b.Module()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidatorIfElse(t *testing.T) {
	b := NewModuleBuilder()
	f := b.NewFunc("f", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	f.LocalGet(f.Param(0))
	f.If(BlockOf(I32))
	f.I32Const(1)
	f.Else()
	f.I32Const(2)
	f.End()
	if err := Validate(b.Module()); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// If with result but missing else arm must be rejected.
	b2 := NewModuleBuilder()
	g := b2.NewFunc("g", FuncType{Params: []ValType{I32}, Results: []ValType{I32}})
	g.LocalGet(g.Param(0))
	g.If(BlockOf(I32))
	g.I32Const(1)
	g.End()
	if err := Validate(b2.Module()); err == nil {
		t.Error("if-without-else producing a value was accepted")
	}
}

func TestBuilderPanicsOnImbalance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unbalanced control nesting")
		}
	}()
	b := NewModuleBuilder()
	f := b.NewFunc("f", FuncType{})
	f.Block(BlockVoid) // never closed
	b.Module()
}

func TestBuilderTypeInterning(t *testing.T) {
	b := NewModuleBuilder()
	t1 := b.AddType(FuncType{Params: []ValType{I32}})
	t2 := b.AddType(FuncType{Params: []ValType{I32}})
	t3 := b.AddType(FuncType{Params: []ValType{I64}})
	if t1 != t2 {
		t.Errorf("identical types not interned: %d vs %d", t1, t2)
	}
	if t1 == t3 {
		t.Error("distinct types interned together")
	}
}

func TestFuncTypeAt(t *testing.T) {
	b := buildTestModule()
	m := b.Module()
	ft, err := m.FuncTypeAt(0) // import env.log
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Params) != 1 || ft.Params[0] != I32 || len(ft.Results) != 0 {
		t.Errorf("import type wrong: %v", ft)
	}
	ft, err = m.FuncTypeAt(1) // add
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Params) != 2 || len(ft.Results) != 1 {
		t.Errorf("add type wrong: %v", ft)
	}
	if _, err := m.FuncTypeAt(99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestExportedFunc(t *testing.T) {
	m := buildTestModule().Module()
	if idx, ok := m.ExportedFunc("add"); !ok || idx != 1 {
		t.Errorf("ExportedFunc(add) = %d, %v", idx, ok)
	}
	if _, ok := m.ExportedFunc("nope"); ok {
		t.Error("nonexistent export found")
	}
}
