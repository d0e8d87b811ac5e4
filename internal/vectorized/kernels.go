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
	"sync"

	"wasmdb/internal/engine"
	"wasmdb/internal/wasm"
)

// BatchSize is the number of rows per vector batch.
const BatchSize = 2048

// cmpNames names the comparisons in kernel names, in sema.OpEq … OpGe order.
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

// KernelBinary encodes the generic kernel module: the bytes the engine
// compiles once for the whole process.
func KernelBinary() []byte { return wasm.Encode(buildKernelModule()) }

// buildKernelModule constructs the generic kernel module. All vectors are
// positional arrays of 8-byte slots indexed by batch row; selection vectors
// are i32 arrays of row indices. The order below is the module's function
// order.
func buildKernelModule() *wasm.Module {
	b := wasm.NewModuleBuilder()
	b.ImportMemory("env", "memory", 32, 65536)
	k := &kb{b: b, heap: b.AddGlobal(wasm.I32, true, 0)}

	k.genSetHeap()
	k.genAlloc()
	k.genSelSeq()
	k.genSelNonzero()
	for e := 0; e < 3; e++ { // i32, i64, f64 columns
		for c := range cmpNames {
			k.genSelCmpImm(e, c)
		}
	}
	k.genLike(selShape)
	k.genEqChar(selShape)
	k.genGather(false)
	k.genMapOps()
	k.genHashWord()
	k.genHashChar()
	k.genKwWord()
	k.genKwChar()
	k.genCanonF64()
	k.genSelNonNanF64()
	k.genInsert(true)
	k.genAggKernels()
	k.genInsert(false)
	k.genJoinProbe()
	k.genHTScan()
	k.genEntryWord()
	k.genStoreEntryWord()
	k.genStoreEntryChar()
	k.genGather(true)
	k.genLike(valShape)
	k.genFill()
	k.genEqChar(valShape)
	k.genEntryChar()
	k.genArrReadChar()
	k.genSortKernels()
	return b.Module()
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
		kernelBin = KernelBinary()
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

func (k *kb) genSetHeap() {
	f := k.fn("set_heap", i32s(1))
	f.LocalGet(0)
	f.GlobalSet(k.heap)
	f.export()
}

func (k *kb) genAlloc() {
	f := k.fn("alloc", i32s(1), wasm.I32)
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
	f.export()
	k.allocIdx = f.Index
}
