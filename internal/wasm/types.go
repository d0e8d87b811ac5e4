// Package wasm implements a self-contained WebAssembly (core MVP) binary
// toolkit: a module builder with a typed emit API, a binary encoder, a
// decoder, a validator, and a WAT-style printer.
//
// The package plays the role of the "interchange format" layer of the paper:
// the query compiler (internal/core) emits genuine .wasm bytes through
// ModuleBuilder, and the execution engine (internal/engine) consumes the same
// bytes through Decode/Validate. A function body is its instruction bytes
// from the builder to the engine's compilers (Func.Code): the builder
// appends them, Encode and Decode only assemble and split sections, and one
// Reader decodes instructions for every consumer. Only features needed by a
// query engine are implemented: the full numeric/control/memory instruction
// set of the MVP, one memory, one table (for call_indirect), globals, imports
// and exports.
package wasm

import "fmt"

// ValType is a WebAssembly value type.
type ValType byte

// Value types, encoded exactly as in the binary format.
const (
	I32 ValType = 0x7F
	I64 ValType = 0x7E
	F32 ValType = 0x7D
	F64 ValType = 0x7C
)

func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	default:
		return fmt.Sprintf("valtype(0x%02x)", byte(t))
	}
}

// Valid reports whether t is one of the four MVP value types.
func (t ValType) Valid() bool {
	return t == I32 || t == I64 || t == F32 || t == F64
}

// BlockType describes the result arity of a block, loop, or if construct.
// The MVP allows either no result (BlockVoid) or a single value type.
type BlockType byte

// BlockVoid is the empty block type (0x40 in the binary format).
const BlockVoid BlockType = 0x40

// BlockOf returns the block type producing a single value of type t.
func BlockOf(t ValType) BlockType { return BlockType(t) }

// Results returns the result types of the block type (zero or one).
func (b BlockType) Results() []ValType {
	if b == BlockVoid {
		return nil
	}
	return []ValType{ValType(b)}
}

func (b BlockType) String() string {
	if b == BlockVoid {
		return ""
	}
	return " (result " + ValType(b).String() + ")"
}

// FuncType is a function signature.
type FuncType struct {
	Params  []ValType
	Results []ValType
}

// Equal reports whether two function types are identical.
func (f FuncType) Equal(g FuncType) bool {
	if len(f.Params) != len(g.Params) || len(f.Results) != len(g.Results) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != g.Params[i] {
			return false
		}
	}
	for i := range f.Results {
		if f.Results[i] != g.Results[i] {
			return false
		}
	}
	return true
}

func (f FuncType) String() string {
	s := "(func"
	for _, p := range f.Params {
		s += " (param " + p.String() + ")"
	}
	for _, r := range f.Results {
		s += " (result " + r.String() + ")"
	}
	return s + ")"
}

// Limits bounds a memory or table size, in pages or elements.
type Limits struct {
	Min    uint32
	Max    uint32
	HasMax bool
}

// GlobalType describes a global variable's type and mutability.
type GlobalType struct {
	Type    ValType
	Mutable bool
}

// ExternKind identifies the kind of an import or export.
type ExternKind byte

// Extern kinds, encoded as in the binary format.
const (
	ExternFunc   ExternKind = 0x00
	ExternTable  ExternKind = 0x01
	ExternMemory ExternKind = 0x02
	ExternGlobal ExternKind = 0x03
)

func (k ExternKind) String() string {
	switch k {
	case ExternFunc:
		return "func"
	case ExternTable:
		return "table"
	case ExternMemory:
		return "memory"
	case ExternGlobal:
		return "global"
	default:
		return fmt.Sprintf("externkind(0x%02x)", byte(k))
	}
}

// Import declares a single import.
type Import struct {
	Module string
	Name   string
	Kind   ExternKind
	// Type holds the index into Module.Types for ExternFunc imports.
	Type uint32
	// Mem holds the limits for ExternMemory imports.
	Mem Limits
	// Global holds the type for ExternGlobal imports.
	Global GlobalType
	// Table holds the limits for ExternTable imports.
	Table Limits
}

// Export declares a single export.
type Export struct {
	Name  string
	Kind  ExternKind
	Index uint32
}

// Global is a module-defined global variable with a constant initializer.
type Global struct {
	Type GlobalType
	// Init is the initial value, interpreted according to Type.Type
	// (raw bits for floats).
	Init uint64
}

// DataSegment is an active data segment placed at a constant offset.
type DataSegment struct {
	Offset uint32
	Bytes  []byte
}

// ElemSegment is an active element segment for the function table.
type ElemSegment struct {
	Offset uint32
	Funcs  []uint32
}

// Func is a module-defined function: its type, declared locals (beyond
// parameters), and body.
type Func struct {
	Type uint32
	// Locals lists the non-parameter locals in declaration order, one entry
	// per local (run-length compression happens at encode time).
	Locals []ValType
	// Code is the body's instruction bytes as in the binary format: what
	// follows the locals vector, up to and including the final end. Read it
	// with NewReader; Validate checks that it is well formed.
	Code []byte
	// Name is an optional debug name (encoded in the name section).
	Name string
}

// Module is a decoded or under-construction WebAssembly module.
type Module struct {
	Types   []FuncType
	Imports []Import
	Funcs   []Func
	// TableMin is the minimum size of the single function table; the table
	// exists iff TableMin > 0 or Elems is non-empty.
	TableMin uint32
	HasTable bool
	// Memory declares the single memory; present iff HasMemory.
	Memory    Limits
	HasMemory bool
	Globals   []Global
	Exports   []Export
	Start     int32 // -1 if absent
	Elems     []ElemSegment
	Data      []DataSegment
}

// NumImportedFuncs returns the number of imported functions; module-defined
// function i has function index NumImportedFuncs()+i.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, im := range m.Imports {
		if im.Kind == ExternFunc {
			n++
		}
	}
	return n
}

// FuncLabel names a module-defined function in messages: its debug name if
// it has one, else "func N" with N its function index (imports first), the
// number the engine's tier-up events give it. An unnamed fn that does not
// point into m.Funcs is "func ?".
func (m *Module) FuncLabel(fn *Func) string {
	if fn.Name != "" {
		return fn.Name
	}
	for i := range m.Funcs {
		if &m.Funcs[i] == fn {
			return fmt.Sprintf("func %d", m.NumImportedFuncs()+i)
		}
	}
	return "func ?"
}

// FuncTypeAt returns the signature of the function with the given function
// index (imports first, then module-defined functions).
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	n := uint32(0)
	for _, im := range m.Imports {
		if im.Kind != ExternFunc {
			continue
		}
		if n == idx {
			if int(im.Type) >= len(m.Types) {
				return FuncType{}, fmt.Errorf("wasm: import type index %d out of range", im.Type)
			}
			return m.Types[im.Type], nil
		}
		n++
	}
	local := idx - n
	if int(local) >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", idx)
	}
	ti := m.Funcs[local].Type
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: type index %d out of range", ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc returns the function index exported under name.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExternFunc && e.Name == name {
			return e.Index, true
		}
	}
	return 0, false
}
