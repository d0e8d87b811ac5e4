// Package vectorized implements the MonetDB/X100-style baseline (the
// paper's DuckDB stand-in, §8.1): batch-at-a-time execution with selection
// vectors over a *pre-compiled, generic* kernel library.
//
// To keep the comparison with the Wasm-compiling engine substrate-fair, the
// kernels themselves are a fixed WebAssembly module executed by the same
// engine (fully TurboFan-compiled once, at first use — the analog of DuckDB
// shipping natively compiled kernels, with zero per-query compile time).
// What distinguishes this baseline architecturally is exactly what §5.1
// describes: expressions are dissected into per-atomic-term kernel calls
// that refine selection vectors one condition at a time; hash tables are
// type-agnostic (normalized key words, stored hashes, generic word
// comparisons — Listing 3's design); sorting encodes order-preserving key
// bytes and runs a generic byte-comparing, byte-swapping quicksort.
package vectorized

import (
	"fmt"
	"sync"

	"wasmdb/internal/engine"
	"wasmdb/internal/wasm"
)

// BatchSize is the number of rows per vector batch.
const BatchSize = 2048

// Comparison codes shared between kernel generation and the driver.
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
	numCmps
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// Column element codes.
const (
	elemI32 = iota // 4-byte signed (INT, DATE)
	elemI64        // 8-byte signed (BIGINT, DECIMAL)
	elemF64        // 8-byte float
	elemU8         // 1-byte (BOOLEAN)
	numElems
)

var elemNames = [...]string{"i32", "i64", "f64", "u8"}

// buildKernels constructs the generic kernel module. All vectors are
// positional arrays of 8-byte slots indexed by batch row; selection vectors
// are i32 arrays of row indices.
func buildKernels() []byte {
	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", 32, 65536)
	k := &kb{b: b, heap: b.AddGlobal(wasm.I32, true, 0)}

	k.genSetHeap()
	k.genAlloc()
	k.genSelSeq()
	k.genSelNonzero()
	for e := 0; e < 3; e++ { // i32, i64, f64 columns
		for c := 0; c < numCmps; c++ {
			k.genSelCmpImm(e, c)
		}
	}
	k.genSelLike()
	k.genSelCmpChar()
	k.genGather()
	k.genMapOps()
	k.genHashWord()
	k.genHashChar()
	k.genKwWord()
	k.genKwChar()
	k.genCanonF64()
	k.genSelNonNanF64()
	k.genGroupLocate()
	k.genAggKernels()
	k.genJoinInsert()
	k.genJoinProbe()
	k.genHTScan()
	k.genEntryWord()
	k.genStoreEntryWord()
	k.genStoreEntryChar()
	k.genCompactGather()
	k.genValLike()
	k.genExtraKernels()
	k.genSortKernels()
	return b.Bytes()
}

var (
	kernelOnce sync.Once
	kernelBin  []byte
	kernelMod  *engine.Module
	kernelErr  error
)

// kernelModule compiles the kernel library once (TurboFan, full
// optimization) and caches it — the "pre-compiled library".
func kernelModule() (*engine.Module, error) {
	kernelOnce.Do(func() {
		kernelBin = buildKernels()
		eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
		kernelMod, kernelErr = eng.Compile(kernelBin)
	})
	return kernelMod, kernelErr
}

type kb struct {
	b        *wasm.ModuleBuilder
	heap     uint32
	allocIdx uint32
}

func (k *kb) export(f *wasm.FuncBuilder, name string) { k.b.Export(name, wasm.ExternFunc, f.Index) }

// loop emits for (i = 0; i < n; i++) { body(i) } over locals.
func loop(f *wasm.FuncBuilder, i, n wasm.Local, body func()) {
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(n)
	f.Op(wasm.OpI32GeS)
	f.BrIf(1)
	body()
	f.LocalGet(i)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
}

// selRow pushes sel[i] (i32).
func selRow(f *wasm.FuncBuilder, sel, i wasm.Local) {
	f.LocalGet(sel)
	f.LocalGet(i)
	f.I32Const(2)
	f.Op(wasm.OpI32Shl)
	f.I32Add()
	f.I32Load(0)
}

// vecAddr pushes base + row*8 where row (i32) is already on the stack.
func vecAddrFromStack(f *wasm.FuncBuilder, base wasm.Local) {
	f.I32Const(3)
	f.Op(wasm.OpI32Shl)
	f.LocalGet(base)
	f.I32Add()
}

func (k *kb) genSetHeap() {
	f := k.b.NewFunc("set_heap", wasm.FuncType{Params: []wasm.ValType{wasm.I32}})
	f.LocalGet(0)
	f.GlobalSet(k.heap)
	k.export(f, "set_heap")
}

func (k *kb) genAlloc() {
	f := k.b.NewFunc("alloc", wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	ptr := f.AddLocal(wasm.I32)
	need := f.AddLocal(wasm.I32)
	f.GlobalGet(k.heap)
	f.I32Const(7)
	f.I32Add()
	f.I32Const(-8)
	f.I32And()
	f.LocalSet(ptr)
	f.LocalGet(ptr)
	f.LocalGet(0)
	f.I32Add()
	f.GlobalSet(k.heap)
	f.GlobalGet(k.heap)
	f.I32Const(65535)
	f.I32Add()
	f.I32Const(16)
	f.Op(wasm.OpI32ShrU)
	f.LocalSet(need)
	f.LocalGet(need)
	f.MemorySize()
	f.Op(wasm.OpI32GtU)
	f.If(wasm.BlockVoid)
	f.LocalGet(need)
	f.MemorySize()
	f.I32Sub()
	f.I32Const(16)
	f.I32Add()
	f.MemoryGrow()
	f.Drop()
	f.End()
	f.LocalGet(ptr)
	k.export(f, "alloc")
	k.allocIdx = f.Index
}

// sel_seq(out, begin, end) -> n
func (k *kb) genSelSeq() {
	f := k.b.NewFunc("sel_seq", wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	out, begin, end := f.Param(0), f.Param(1), f.Param(2)
	i := f.AddLocal(wasm.I32)
	n := f.AddLocal(wasm.I32)
	f.LocalGet(end)
	f.LocalGet(begin)
	f.I32Sub()
	f.LocalSet(n)
	loop(f, i, n, func() {
		f.LocalGet(out)
		f.LocalGet(i)
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.LocalGet(i)
		f.I32Store(0)
	})
	f.LocalGet(n)
	k.export(f, "sel_seq")
}

// sel_nonzero(selIn, n, vec, selOut) -> n'
func (k *kb) genSelNonzero() {
	f := k.b.NewFunc("sel_nonzero", wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32}})
	sel, n, vec, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3)
	i := f.AddLocal(wasm.I32)
	m := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		f.LocalGet(row)
		vecAddrFromStack(f, vec)
		f.I64Load(0)
		f.Op(wasm.OpI64Eqz)
		f.I32Eqz()
		f.If(wasm.BlockVoid)
		f.LocalGet(out)
		f.LocalGet(m)
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.LocalGet(row)
		f.I32Store(0)
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(m)
		f.End()
	})
	f.LocalGet(m)
	k.export(f, "sel_nonzero")
}

// sel_<cmp>_<elem>(selIn, n, colBase, batchStart, imm, selOut) -> n'
// The immediate is i64 for integer columns (sign-compared) and f64 for
// float columns.
func (k *kb) genSelCmpImm(elem, cmp int) {
	immT := wasm.I64
	if elem == elemF64 {
		immT = wasm.F64
	}
	name := fmt.Sprintf("sel_%s_%s", cmpNames[cmp], elemNames[elem])
	f := k.b.NewFunc(name, wasm.FuncType{
		Params:  []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, immT, wasm.I32},
		Results: []wasm.ValType{wasm.I32}})
	sel, n, col, start, imm, out := f.Param(0), f.Param(1), f.Param(2), f.Param(3), f.Param(4), f.Param(5)
	i := f.AddLocal(wasm.I32)
	m := f.AddLocal(wasm.I32)
	row := f.AddLocal(wasm.I32)
	loop(f, i, n, func() {
		selRow(f, sel, i)
		f.LocalSet(row)
		// Load column value at absolute row (start + row).
		f.LocalGet(start)
		f.LocalGet(row)
		f.I32Add()
		switch elem {
		case elemI32:
			f.I32Const(2)
			f.Op(wasm.OpI32Shl)
			f.LocalGet(col)
			f.I32Add()
			f.I32Load(0)
			f.Op(wasm.OpI64ExtendI32S)
		case elemI64:
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.LocalGet(col)
			f.I32Add()
			f.I64Load(0)
		case elemF64:
			f.I32Const(3)
			f.Op(wasm.OpI32Shl)
			f.LocalGet(col)
			f.I32Add()
			f.F64Load(0)
		}
		f.LocalGet(imm)
		if elem == elemF64 {
			f.Op([...]wasm.Opcode{wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Le, wasm.OpF64Gt, wasm.OpF64Ge}[cmp])
		} else {
			f.Op([...]wasm.Opcode{wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LeS, wasm.OpI64GtS, wasm.OpI64GeS}[cmp])
		}
		f.If(wasm.BlockVoid)
		f.LocalGet(out)
		f.LocalGet(m)
		f.I32Const(2)
		f.Op(wasm.OpI32Shl)
		f.I32Add()
		f.LocalGet(row)
		f.I32Store(0)
		f.LocalGet(m)
		f.I32Const(1)
		f.I32Add()
		f.LocalSet(m)
		f.End()
	})
	f.LocalGet(m)
	k.export(f, name)
}
