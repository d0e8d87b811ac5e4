package engine

import (
	"math/rand"
	"slices"
	"testing"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// TestRandomMemoryProgramsDifferential generates random programs mixing
// loads, stores, arithmetic, and loops over a scratch memory region, then
// checks that both tiers produce identical results AND identical final
// memory contents. The memory is sparse: beyond the dense scratch region the
// programs touch a few far-apart demand-zero pages (some only loaded, some
// through a page-straddling access), and both tiers must commit the same set
// of pages.
func TestRandomMemoryProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	const region = 4096 // scratch bytes the programs may touch densely
	const pages = 8     // address space; pages 1..7 are touched sparsely

	for trial := 0; trial < 40; trial++ {
		b := wasm.NewModuleBuilder()
		b.ImportMemory("env", "memory", pages, pages)
		f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}})
		acc := f.AddLocal(wasm.I64)
		i := f.AddLocal(wasm.I32)

		// Random prologue of stores at fixed offsets.
		for k := rng.Intn(6); k > 0; k-- {
			off := uint32(rng.Intn(region-8)) &^ 7
			f.I32Const(int32(off))
			f.LocalGet(0)
			f.I64Const(int64(rng.Uint64()))
			f.Op([]wasm.Opcode{wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64Xor}[rng.Intn(3)])
			f.I64Store(0)
		}
		// A loop striding through the region, mixing loads and stores.
		stride := []int32{8, 16, 24}[rng.Intn(3)]
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(i)
		f.I32Const(int32(region - 8))
		f.I32GeU()
		f.BrIf(1)
		// acc ^= mem[i]; mem[i] = acc + i
		f.LocalGet(acc)
		f.LocalGet(i)
		f.I64Load(0)
		f.Op(wasm.OpI64Xor)
		f.LocalSet(acc)
		f.LocalGet(i)
		f.LocalGet(acc)
		f.LocalGet(i)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Add()
		f.I64Store(0)
		f.LocalGet(i)
		f.I32Const(stride)
		f.I32Add()
		f.LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
		// Sparse accesses on far-apart pages: acc ^= mem[a] or mem[a] = acc,
		// in a page, or straddling into the next one.
		for k := 1 + rng.Intn(4); k > 0; k-- {
			a := int32(1+rng.Intn(pages-2))*wmem.PageSize + []int32{0, 4096, wmem.PageSize - 4}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				f.LocalGet(acc)
				f.I32Const(a)
				f.I64Load(0)
				f.Op(wasm.OpI64Xor)
				f.LocalSet(acc)
			} else {
				f.I32Const(a)
				f.LocalGet(acc)
				f.I64Store(0)
			}
		}
		// Mix in narrow accesses.
		f.I32Const(100)
		f.LocalGet(acc)
		f.Op(wasm.OpI32WrapI64)
		f.I32Store8(1)
		f.I32Const(200)
		f.LocalGet(acc)
		f.Op(wasm.OpI32WrapI64)
		f.I32Store16(2)
		f.LocalGet(acc)
		f.I32Const(100)
		f.I32Load8U(1)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Add()
		b.Export("p", wasm.ExternFunc, f.Index)
		bin := b.Bytes()

		arg := rng.Uint64()
		var refRes uint64
		var refMem []byte
		var refCommitted []int
		for ti, tier := range []Tier{TierLiftoff, TierTurbofan} {
			m, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, tier, err)
			}
			mem := wmem.New(pages, pages)
			inst, err := m.Instantiate(Imports{Memory: mem})
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Call("p", arg)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, tier, err)
			}
			var committed []int
			for p, pg := range mem.PageSlice() {
				if pg != nil {
					committed = append(committed, p)
				}
			}
			dump := mem.ReadBytes(0, pages*wmem.PageSize)
			if ti == 0 {
				refRes = res[0]
				refMem = dump
				refCommitted = committed
				continue
			}
			if !slices.Equal(committed, refCommitted) {
				t.Fatalf("trial %d: tiers committed different pages: %v vs %v", trial, committed, refCommitted)
			}
			if res[0] != refRes {
				t.Fatalf("trial %d: results differ: %#x vs %#x", trial, res[0], refRes)
			}
			for a := range dump {
				if dump[a] != refMem[a] {
					t.Fatalf("trial %d: memory differs at %#x: %#x vs %#x", trial, a, dump[a], refMem[a])
				}
			}
		}
	}
}
