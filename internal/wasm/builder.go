package wasm

import (
	"fmt"
	"math"
)

// ModuleBuilder incrementally constructs a Module. It is the code-generation
// surface of the package: the query compiler creates functions through
// NewFunc, emits instructions through the typed FuncBuilder API, and finally
// calls Bytes to obtain the binary module.
//
// All function imports must be declared before the first call to NewFunc,
// because imported functions occupy the lowest function indices.
//
// A builder can be reused: Reset empties it and keeps its storage, so the
// next module's bodies, locals and tables go into the buffers the last one
// grew. The Module that Module returned and every FuncBuilder that NewFunc
// handed out are invalid after Reset; encode the module first.
type ModuleBuilder struct {
	mod        Module
	numImports int
	sealed     bool // set once the first defined function is created
	funcs      []*FuncBuilder
}

// NewModuleBuilder returns an empty module builder.
func NewModuleBuilder() *ModuleBuilder {
	return &ModuleBuilder{mod: Module{Start: -1}}
}

// Reset empties the builder for the next module and keeps its storage: the
// module's slices and every function builder's body and locals buffers are
// reused by the builds that follow. The Module returned before and every
// FuncBuilder handed out before are invalid afterwards.
func (b *ModuleBuilder) Reset() {
	m := &b.mod
	// Data and element segments point at the caller's buffers; drop them so
	// an idle builder keeps nothing of its last module alive.
	clear(m.Data)
	clear(m.Elems)
	*m = Module{
		Types: m.Types[:0], Imports: m.Imports[:0], Funcs: m.Funcs[:0], Globals: m.Globals[:0],
		Exports: m.Exports[:0], Elems: m.Elems[:0], Data: m.Data[:0], Start: -1,
	}
	for _, fb := range b.funcs {
		fb.fn.Code = fb.fn.Code[:0]
		fb.fn.Locals = fb.fn.Locals[:0]
	}
	b.funcs = b.funcs[:0]
	b.numImports, b.sealed = 0, false
}

// AddType interns a function type and returns its type index.
func (b *ModuleBuilder) AddType(ft FuncType) uint32 {
	for i, t := range b.mod.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	b.mod.Types = append(b.mod.Types, ft)
	return uint32(len(b.mod.Types) - 1)
}

// ImportFunc declares a function import and returns its function index.
// It panics if called after the first defined function has been created.
func (b *ModuleBuilder) ImportFunc(module, name string, ft FuncType) uint32 {
	if b.sealed {
		panic("wasm: ImportFunc after NewFunc")
	}
	ti := b.AddType(ft)
	b.mod.Imports = append(b.mod.Imports, Import{Module: module, Name: name, Kind: ExternFunc, Type: ti})
	idx := uint32(b.numImports)
	b.numImports++
	return idx
}

// ImportMemory declares a memory import with the given limits (in pages).
func (b *ModuleBuilder) ImportMemory(module, name string, min, max uint32) {
	b.mod.Imports = append(b.mod.Imports, Import{
		Module: module, Name: name, Kind: ExternMemory,
		Mem: Limits{Min: min, Max: max, HasMax: true},
	})
}

// AddMemory declares a module-defined memory with the given limits (pages).
func (b *ModuleBuilder) AddMemory(min, max uint32) {
	b.mod.Memory = Limits{Min: min, Max: max, HasMax: true}
	b.mod.HasMemory = true
}

// AddGlobal declares a module-defined global and returns its global index.
// Imported globals are not supported, so indices start at zero.
func (b *ModuleBuilder) AddGlobal(t ValType, mutable bool, init uint64) uint32 {
	b.mod.Globals = append(b.mod.Globals, Global{Type: GlobalType{Type: t, Mutable: mutable}, Init: init})
	return uint32(len(b.mod.Globals) - 1)
}

// AddData places bytes at a constant offset in memory at instantiation time.
func (b *ModuleBuilder) AddData(offset uint32, data []byte) {
	b.mod.Data = append(b.mod.Data, DataSegment{Offset: offset, Bytes: data})
}

// Export exports the entity with the given kind and index under name.
func (b *ModuleBuilder) Export(name string, kind ExternKind, index uint32) {
	b.mod.Exports = append(b.mod.Exports, Export{Name: name, Kind: kind, Index: index})
}

// NewFunc creates a new module-defined function with the given debug name and
// signature and returns a FuncBuilder for its body. The function index is
// available immediately as FuncBuilder.Index, so mutually recursive calls can
// be emitted. After a Reset it reuses a function builder of the last module,
// with its emptied body and locals buffers.
func (b *ModuleBuilder) NewFunc(name string, ft FuncType) *FuncBuilder {
	b.sealed = true
	ti := b.AddType(ft)
	var fb *FuncBuilder
	if n := len(b.funcs); n < cap(b.funcs) {
		fb = b.funcs[:n+1][n]
	}
	if fb == nil {
		fb = new(FuncBuilder)
	}
	*fb = FuncBuilder{
		mb:     b,
		Index:  uint32(b.numImports + len(b.funcs)),
		typ:    ft,
		fn:     Func{Type: ti, Name: name, Code: fb.fn.Code, Locals: fb.fn.Locals},
		nLocal: len(ft.Params),
	}
	b.funcs = append(b.funcs, fb)
	return fb
}

// Module finalizes all function bodies and returns the built module, whose
// bodies are the function builders' own buffers. It may be called again, and
// returns the same bodies. It panics if any function has unbalanced control
// nesting.
func (b *ModuleBuilder) Module() *Module {
	b.mod.Funcs = b.mod.Funcs[:0]
	for _, fb := range b.funcs {
		if fb.depth != 0 {
			panic(fmt.Sprintf("wasm: function %q has unbalanced control nesting (%d open)", fb.fn.Name, fb.depth))
		}
		if !fb.ended {
			// Append the end closing the function frame, once; inner
			// constructs are balanced (depth is zero), so exactly one is
			// needed.
			fb.fn.Code = append(fb.fn.Code, byte(OpEnd))
			fb.ended = true
		}
		b.mod.Funcs = append(b.mod.Funcs, fb.fn)
	}
	return &b.mod
}

// Bytes finalizes the module and returns its binary encoding.
func (b *ModuleBuilder) Bytes() []byte { return Encode(b.Module()) }

// Local identifies a local variable (parameter or declared local) of the
// function under construction.
type Local uint32

// FuncBuilder emits the body of one function. Emission methods mirror the
// WebAssembly instruction set; structured control (Block/Loop/If/Else/End)
// tracks nesting so imbalances are caught at build time rather than by the
// validator.
type FuncBuilder struct {
	mb     *ModuleBuilder
	Index  uint32
	typ    FuncType
	fn     Func
	nLocal int
	depth  int
	ended  bool // Module appended the final end
}

// Type returns the function's signature.
func (f *FuncBuilder) Type() FuncType { return f.typ }

// Param returns the local referring to parameter i.
func (f *FuncBuilder) Param(i int) Local {
	if i < 0 || i >= len(f.typ.Params) {
		panic("wasm: parameter index out of range")
	}
	return Local(i)
}

// AddLocal declares a fresh local of type t and returns it.
func (f *FuncBuilder) AddLocal(t ValType) Local {
	f.fn.Locals = append(f.fn.Locals, t)
	l := Local(f.nLocal)
	f.nLocal++
	return l
}

// Emit appends a raw instruction, its immediates packed as in Instr.
func (f *FuncBuilder) Emit(op Opcode, a, b uint64) {
	f.fn.Code = appendInstr(f.fn.Code, Instr{Op: op, A: a, B: b})
}

// Op appends an instruction with no immediates.
func (f *FuncBuilder) Op(op Opcode) { f.Emit(op, 0, 0) }

// Control flow.

// Block opens a block with the given result type.
func (f *FuncBuilder) Block(bt BlockType) { f.depth++; f.Emit(OpBlock, uint64(bt), 0) }

// Loop opens a loop with the given result type.
func (f *FuncBuilder) Loop(bt BlockType) { f.depth++; f.Emit(OpLoop, uint64(bt), 0) }

// If opens an if with the given result type, consuming an i32 condition.
func (f *FuncBuilder) If(bt BlockType) { f.depth++; f.Emit(OpIf, uint64(bt), 0) }

// Else starts the else arm of the innermost if.
func (f *FuncBuilder) Else() { f.Op(OpElse) }

// End closes the innermost block, loop, or if.
func (f *FuncBuilder) End() {
	if f.depth == 0 {
		panic("wasm: End without open control construct")
	}
	f.depth--
	f.Op(OpEnd)
}

// Br branches to the label depth levels out.
func (f *FuncBuilder) Br(depth uint32) { f.Emit(OpBr, uint64(depth), 0) }

// BrIf conditionally branches to the label depth levels out.
func (f *FuncBuilder) BrIf(depth uint32) { f.Emit(OpBrIf, uint64(depth), 0) }

// BrTable emits a branch table with the given targets and default.
func (f *FuncBuilder) BrTable(targets []uint32, def uint32) {
	f.fn.Code = appendInstr(f.fn.Code, Instr{Op: OpBrTable, A: uint64(def), Table: targets})
}

// Return emits a function return.
func (f *FuncBuilder) Return() { f.Op(OpReturn) }

// Unreachable emits a trap.
func (f *FuncBuilder) Unreachable() { f.Op(OpUnreachable) }

// Call emits a direct call to the function with the given index.
func (f *FuncBuilder) Call(fn uint32) { f.Emit(OpCall, uint64(fn), 0) }

// CallBuilder emits a direct call to another function under construction.
func (f *FuncBuilder) CallBuilder(other *FuncBuilder) { f.Call(other.Index) }

// Drop and select.

// Drop discards the top stack value.
func (f *FuncBuilder) Drop() { f.Op(OpDrop) }

// Select picks one of two values by an i32 condition (branch-free).
func (f *FuncBuilder) Select() { f.Op(OpSelect) }

// Locals and globals.

// LocalGet pushes the value of l.
func (f *FuncBuilder) LocalGet(l Local) { f.Emit(OpLocalGet, uint64(l), 0) }

// LocalSet pops into l.
func (f *FuncBuilder) LocalSet(l Local) { f.Emit(OpLocalSet, uint64(l), 0) }

// LocalTee stores the top of stack into l, leaving it on the stack.
func (f *FuncBuilder) LocalTee(l Local) { f.Emit(OpLocalTee, uint64(l), 0) }

// LocalAddI32 adds n to the i32 local l (local.get, i32.const, i32.add,
// local.set).
func (f *FuncBuilder) LocalAddI32(l Local, n int32) {
	f.LocalGet(l)
	f.I32Const(n)
	f.I32Add()
	f.LocalSet(l)
}

// GlobalGet pushes the value of global g.
func (f *FuncBuilder) GlobalGet(g uint32) { f.Emit(OpGlobalGet, uint64(g), 0) }

// GlobalSet pops into global g.
func (f *FuncBuilder) GlobalSet(g uint32) { f.Emit(OpGlobalSet, uint64(g), 0) }

// Constants.

// I32Const pushes a 32-bit integer constant.
func (f *FuncBuilder) I32Const(v int32) { f.Emit(OpI32Const, uint64(uint32(v)), 0) }

// I64Const pushes a 64-bit integer constant.
func (f *FuncBuilder) I64Const(v int64) { f.Emit(OpI64Const, uint64(v), 0) }

// F32Const pushes a 32-bit float constant.
func (f *FuncBuilder) F32Const(v float32) { f.Emit(OpF32Const, uint64(math.Float32bits(v)), 0) }

// F64Const pushes a 64-bit float constant.
func (f *FuncBuilder) F64Const(v float64) { f.Emit(OpF64Const, math.Float64bits(v), 0) }

// Memory access. Offsets are constant byte offsets added to the popped base
// address; alignment hints are set to the access's natural alignment.

func (f *FuncBuilder) load(op Opcode, offset uint32, alignLog2 uint64) {
	f.Emit(op, uint64(offset), alignLog2)
}

// I32Load loads an i32 from base+offset.
func (f *FuncBuilder) I32Load(offset uint32) { f.load(OpI32Load, offset, 2) }

// I64Load loads an i64 from base+offset.
func (f *FuncBuilder) I64Load(offset uint32) { f.load(OpI64Load, offset, 3) }

// F32Load loads an f32 from base+offset.
func (f *FuncBuilder) F32Load(offset uint32) { f.load(OpF32Load, offset, 2) }

// F64Load loads an f64 from base+offset.
func (f *FuncBuilder) F64Load(offset uint32) { f.load(OpF64Load, offset, 3) }

// I32Load8U loads a zero-extended byte.
func (f *FuncBuilder) I32Load8U(offset uint32) { f.load(OpI32Load8U, offset, 0) }

// I32Load8S loads a sign-extended byte.
func (f *FuncBuilder) I32Load8S(offset uint32) { f.load(OpI32Load8S, offset, 0) }

// I32Load16U loads a zero-extended 16-bit value.
func (f *FuncBuilder) I32Load16U(offset uint32) { f.load(OpI32Load16U, offset, 1) }

// I32Load16S loads a sign-extended 16-bit value.
func (f *FuncBuilder) I32Load16S(offset uint32) { f.load(OpI32Load16S, offset, 1) }

// I32Store stores an i32 at base+offset.
func (f *FuncBuilder) I32Store(offset uint32) { f.load(OpI32Store, offset, 2) }

// I64Store stores an i64 at base+offset.
func (f *FuncBuilder) I64Store(offset uint32) { f.load(OpI64Store, offset, 3) }

// F32Store stores an f32 at base+offset.
func (f *FuncBuilder) F32Store(offset uint32) { f.load(OpF32Store, offset, 2) }

// F64Store stores an f64 at base+offset.
func (f *FuncBuilder) F64Store(offset uint32) { f.load(OpF64Store, offset, 3) }

// I32Store8 stores the low byte of an i32 at base+offset.
func (f *FuncBuilder) I32Store8(offset uint32) { f.load(OpI32Store8, offset, 0) }

// I32Store16 stores the low 16 bits of an i32 at base+offset.
func (f *FuncBuilder) I32Store16(offset uint32) { f.load(OpI32Store16, offset, 1) }

// MemorySize pushes the current memory size in pages.
func (f *FuncBuilder) MemorySize() { f.Emit(OpMemorySize, 0, 0) }

// MemoryGrow grows memory by the popped number of pages.
func (f *FuncBuilder) MemoryGrow() { f.Emit(OpMemoryGrow, 0, 0) }

// The remaining numeric instructions have no immediates; for brevity only the
// ones used pervasively by the query compiler get named helpers, everything
// else is available through Op.

// I32Add pops two i32s and pushes their sum.
func (f *FuncBuilder) I32Add() { f.Op(OpI32Add) }

// I32Sub pops two i32s and pushes their difference.
func (f *FuncBuilder) I32Sub() { f.Op(OpI32Sub) }

// I32Mul pops two i32s and pushes their product.
func (f *FuncBuilder) I32Mul() { f.Op(OpI32Mul) }

// I32And pops two i32s and pushes their bitwise and.
func (f *FuncBuilder) I32And() { f.Op(OpI32And) }

// I32Or pops two i32s and pushes their bitwise or.
func (f *FuncBuilder) I32Or() { f.Op(OpI32Or) }

// I32Xor pops two i32s and pushes their bitwise xor.
func (f *FuncBuilder) I32Xor() { f.Op(OpI32Xor) }

// I32Eqz pushes 1 if the popped i32 is zero.
func (f *FuncBuilder) I32Eqz() { f.Op(OpI32Eqz) }

// I32Eq pushes 1 if two popped i32s are equal.
func (f *FuncBuilder) I32Eq() { f.Op(OpI32Eq) }

// I32Ne pushes 1 if two popped i32s differ.
func (f *FuncBuilder) I32Ne() { f.Op(OpI32Ne) }

// I32LtU pushes 1 if a < b (unsigned).
func (f *FuncBuilder) I32LtU() { f.Op(OpI32LtU) }

// I32LtS pushes 1 if a < b (signed).
func (f *FuncBuilder) I32LtS() { f.Op(OpI32LtS) }

// I32GeU pushes 1 if a >= b (unsigned).
func (f *FuncBuilder) I32GeU() { f.Op(OpI32GeU) }

// I64Add pops two i64s and pushes their sum.
func (f *FuncBuilder) I64Add() { f.Op(OpI64Add) }

// I64Sub pops two i64s and pushes their difference.
func (f *FuncBuilder) I64Sub() { f.Op(OpI64Sub) }

// I64Mul pops two i64s and pushes their product.
func (f *FuncBuilder) I64Mul() { f.Op(OpI64Mul) }

// F64Add pops two f64s and pushes their sum.
func (f *FuncBuilder) F64Add() { f.Op(OpF64Add) }

// F64Sub pops two f64s and pushes their difference.
func (f *FuncBuilder) F64Sub() { f.Op(OpF64Sub) }

// F64Mul pops two f64s and pushes their product.
func (f *FuncBuilder) F64Mul() { f.Op(OpF64Mul) }

// F64Div pops two f64s and pushes their quotient.
func (f *FuncBuilder) F64Div() { f.Op(OpF64Div) }
