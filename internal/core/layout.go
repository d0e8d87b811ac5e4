// Package core is the paper's primary contribution: compilation of query
// execution plans to WebAssembly with ad-hoc generation of all required
// library code, and morsel-wise adaptive execution on the embedded engine.
//
// The compiler walks the physical plan in data-centric style (Neumann):
// every pipeline becomes one exported Wasm function `pipeline_i(begin, end)`
// driven morsel-wise by the host, so the engine's background tier-up
// replaces baseline code with optimized code *between* morsels — adaptive
// execution for free (§2.2). Algorithms and data structures the plan needs —
// open-addressing hash tables for grouping and joins, quicksort with
// inlined comparators, LIKE matchers — are generated monomorphically into
// the same module (§5): no type-agnostic interfaces, no per-element function
// calls, no pre-compiled library.
package core

import (
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Address-space plan (§6): page 0 is left unused (ordinary zero memory that
// nothing is placed in, so a null pointer reads zeros — it does not trap), a
// small constant region holds string literals and LIKE patterns, a writable
// parameter region holds the per-execution query parameters (hoisted literals
// and prepared-statement arguments — written by the host before q_init, read
// by generated code), referenced table columns are rewired page-aligned after
// it, then the result buffer, then the bump-allocated heap for generated data
// structures.
// The plan is address space, not allocation: linear memory is demand-zero
// (see wmem), so the result buffer and the heap cost only the pages a query
// touches.
const (
	pageSize    = 64 * 1024
	constBase   = pageSize // string constants live in page 1
	constSize   = pageSize
	paramBase   = constBase + constSize // parameter region is page 2
	paramSize   = pageSize
	columnsBase = paramBase + paramSize
)

// resultCapacityRows is the size of the result buffer in rows; when full,
// the generated code calls the host's result_flush callback (§6.2).
const resultCapacityRows = 64 * 1024

// DefaultMorselRows is the number of rows per morsel call.
const DefaultMorselRows = 16 * 1024

// wasmType maps a SQL type to its Wasm value type; CHAR values are pointers
// into linear memory.
func wasmType(t types.Type) wasm.ValType {
	switch t.Kind {
	case types.Bool, types.Int32, types.Date, types.Char:
		return wasm.I32
	case types.Int64, types.Decimal:
		return wasm.I64
	case types.Float64:
		return wasm.F64
	}
	panic("core: unknown type")
}

// field is one attribute inside a materialized tuple.
type field struct {
	expr   sema.Expr
	t      types.Type
	offset uint32
}

// tupleLayout is the byte layout of a materialized tuple (hash-table entry
// payload, sort-array element, or result row).
type tupleLayout struct {
	fields []field
	stride uint32
}

// buildLayout assigns aligned offsets. startOffset reserves a prefix (e.g.
// a hash-table entry's occupancy flag).
func buildLayout(exprs []sema.Expr, startOffset uint32) tupleLayout {
	l := tupleLayout{}
	// 8-byte fields first, then 4-byte, then chars: natural alignment
	// without padding holes.
	off := startOffset
	add := func(e sema.Expr, size int) {
		l.fields = append(l.fields, field{expr: e, t: e.Type(), offset: off})
		off += uint32(size)
	}
	for _, e := range exprs {
		if s := e.Type().Size(); s == 8 {
			add(e, 8)
		}
	}
	for _, e := range exprs {
		if s := e.Type().Size(); s == 4 {
			add(e, 4)
		}
	}
	for _, e := range exprs {
		s := e.Type().Size()
		if s != 8 && s != 4 {
			add(e, s)
		}
	}
	// Stride aligned to 8 so consecutive tuples keep field alignment.
	l.stride = (off + 7) &^ 7
	if l.stride == 0 {
		l.stride = 8
	}
	return l
}

// find returns the field holding an expression structurally equal to e.
func (l *tupleLayout) find(e sema.Expr) (field, bool) {
	for _, f := range l.fields {
		if sema.Equal(f.expr, e) {
			return f, true
		}
	}
	return field{}, false
}

// align8 requires startOffset alignment guarantees: tuples are placed at
// 8-aligned base addresses by the allocator, so 8-byte fields need 8-aligned
// offsets. buildLayout's ordering (8s first from an 8-aligned or flag-adjusted
// start) ensures this as long as startOffset is 0 or 8; the hash-table entry
// flag occupies a full 8 bytes for that reason.

// binding makes one expression's value obtainable in the current pipeline
// context; push emits code leaving the value on the stack (a pointer for
// CHAR).
type binding struct {
	expr sema.Expr
	push func()
}

// env is the set of bindings available while compiling a pipeline body.
type env struct {
	binds []binding
}

func (e *env) add(expr sema.Expr, push func()) {
	e.binds = append(e.binds, binding{expr: expr, push: push})
}

func (e *env) lookup(expr sema.Expr) (binding, bool) {
	for _, b := range e.binds {
		if sema.Equal(b.expr, expr) {
			return b, true
		}
	}
	return binding{}, false
}
