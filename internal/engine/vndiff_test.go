package engine

import (
	"fmt"
	"math"
	"testing"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// The optimizing compiler numbers values (turbofan/vn.go): a load, a
// global.get or a pure operation whose value a register still holds becomes a
// use of that register, and two bounds on one value become one unsigned range
// test. The baseline compiler does neither, so the tier-differential
// generator checks the pass against it; the cases below aim at what the pass
// itself can get wrong — a kill it misses, a register it renames too far, two
// loads it wrongly takes for one, a range it normalizes past a limit — and
// check both tiers against values computed here in Go.

// vnHazard is one function p(x i64, y i64) i64 over locals x, y and z (i64)
// and any a hazard adds, in a module with two i64 globals, a two-page memory
// that may grow to four, and helper h(v) = 3v+1, which also stores v at
// address 8 and adds v to global 0, reachable by call and through table slot
// 0. Every call starts from a fresh instance with both globals zero.
type vnHazard struct {
	name string
	body func(f *wasm.FuncBuilder, z wasm.Local, h, hType uint32)
	want func(x, y uint64) uint64
}

// vnAddr pushes an address that depends on y, 64 + (y mod 8)·8, in the
// scaled form the optimizing compiler folds into its loads.
func vnAddr(f *wasm.FuncBuilder) {
	f.LocalGet(1)
	f.Op(wasm.OpI32WrapI64)
	f.I32Const(7)
	f.I32And()
	f.I32Const(3)
	f.Op(wasm.OpI32Shl)
}

// vnStore stores local l at vnAddr + off.
func vnStore(f *wasm.FuncBuilder, off uint32, l wasm.Local) {
	vnAddr(f)
	f.LocalGet(l)
	f.I64Store(64 + off)
}

// vnLoad pushes the i64 at vnAddr + off with load op.
func vnLoad(f *wasm.FuncBuilder, op wasm.Opcode, off uint32) {
	vnAddr(f)
	f.Emit(op, uint64(64+off), 0)
}

func vnI64Load(f *wasm.FuncBuilder, off uint32) { vnLoad(f, wasm.OpI64Load, off) }

var vnHazards = []vnHazard{
	{"reload after a store to the same address", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		vnStore(f, 0, 1)
		vnI64Load(f, 0)
		f.I64Sub()
	}, func(x, y uint64) uint64 { return x - y }},
	{"reload after a store to an overlapping address", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		vnAddr(f)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.I32Store8(64 + 3)
		vnI64Load(f, 0)
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 5*(x&^(0xFF<<24)|(y&0xFF)<<24) }},
	{"reload after a store to a disjoint address", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		vnStore(f, 8, 1)
		vnI64Load(f, 0)
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
		vnI64Load(f, 8)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) uint64 { return 6*x ^ y }},
	{"reload across a call", func(f *wasm.FuncBuilder, _ wasm.Local, h, _ uint32) {
		f.I32Const(0)
		f.LocalGet(0)
		f.I64Store(8)
		f.I32Const(0)
		f.I64Load(8)
		f.LocalGet(1)
		f.Call(h)
		f.I32Const(0)
		f.I64Load(8)
		f.I64Const(7)
		f.I64Mul()
		f.I64Add()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 3*y + 1 + 7*y }},
	{"reload across call_indirect", func(f *wasm.FuncBuilder, _ wasm.Local, _, hType uint32) {
		f.I32Const(0)
		f.LocalGet(0)
		f.I64Store(8)
		f.I32Const(0)
		f.I64Load(8)
		f.LocalGet(1)
		f.I32Const(0)
		f.Emit(wasm.OpCallIndirect, uint64(hType), 0)
		f.Drop()
		f.I32Const(0)
		f.I64Load(8)
		f.I64Const(7)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 7*y }},
	{"reload across memory.grow", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		f.I32Const(1)
		f.MemoryGrow()
		f.Op(wasm.OpI64ExtendI32U)
		vnI64Load(f, 0)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		f.I64Add()
		f.I32Const(2 * wmem.PageSize) // the page the grow added
		f.I64Load(8)
		f.I64Add()
		f.MemorySize()
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Const(1000)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 2 + 3*x + 3000 }},
	{"reload across add@mem", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		// A constant address: the update below becomes i64.add@mem in the
		// optimizing compiler's code, which a scaled address would prevent.
		f.I32Const(24)
		f.LocalGet(0)
		f.I64Store(0)
		f.I32Const(24)
		f.Emit(wasm.OpI64Load32U, 0, 0)
		f.I32Const(24)
		f.I32Const(24)
		f.I64Load(0)
		f.LocalGet(1)
		f.I64Add()
		f.I64Store(0)
		f.I32Const(24)
		f.Emit(wasm.OpI64Load32U, 0, 0)
		f.I64Const(7)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return uint64(uint32(x)) + 7*uint64(uint32(x+y)) }},
	{"global.get across global.set of the same global", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.GlobalSet(0)
		f.GlobalGet(0)
		f.LocalGet(1)
		f.GlobalSet(0)
		f.GlobalGet(0)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		f.GlobalGet(0)
		f.I64Const(1)
		f.I64Add()
		f.GlobalSet(0)
		f.GlobalGet(0)
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 3*y + y + 1 }},
	{"global.get across global.set of another global", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.GlobalSet(0)
		f.GlobalGet(0)
		f.LocalGet(1)
		f.GlobalSet(1)
		f.GlobalGet(0)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		f.GlobalGet(1)
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 3*x + 5*y }},
	{"global.get across a call", func(f *wasm.FuncBuilder, _ wasm.Local, h, _ uint32) {
		f.LocalGet(0)
		f.GlobalSet(0)
		f.GlobalGet(0)
		f.LocalGet(1)
		f.Call(h)
		f.GlobalGet(0)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		f.I64Add()
	}, func(x, y uint64) uint64 { return x + 3*y + 1 + 3*(x+y) }},
	{"a redundant load whose first register was overwritten", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		f.I64Const(5)
		f.I64Add()
		vnI64Load(f, 0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) uint64 { return (x + 5) ^ x }},
	{"a redundant load written straight into a local", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		f.LocalGet(1)
		f.I64Add()
		f.LocalSet(0)
		f.LocalGet(1)
		f.I64Const(9)
		f.I64Mul()
		f.GlobalSet(1) // overwrites the first load's register, not memory
		vnI64Load(f, 0)
		f.LocalSet(z)
		f.LocalGet(0)
		f.I64Const(3)
		f.I64Mul()
		f.LocalGet(z)
		f.I64Add()
		f.GlobalGet(1)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) uint64 { return (3*(x+y) + x) ^ 9*y }},
	{"a redundant load with its local read in between", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.LocalGet(1)
		f.LocalSet(z)
		vnStore(f, 0, 0)
		vnI64Load(f, 0)
		f.I64Const(2)
		f.I64Mul()
		f.LocalGet(z)
		f.GlobalSet(1) // reads z, which the reload writes
		vnI64Load(f, 0)
		f.LocalSet(z)
		f.LocalGet(z)
		f.I64Add()
		f.GlobalGet(1)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) uint64 { return (2*x + x) ^ y }},
	{"a redundant expression whose register a call read", func(f *wasm.FuncBuilder, _ wasm.Local, h, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Mul()
		f.Call(h)
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Mul()
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 { return 3*x*y + 1 + 5*x*y }},
	{"a range test on a call's result after its window register was overwritten", func(f *wasm.FuncBuilder, z wasm.Local, h, _ uint32) {
		f.LocalGet(1)
		f.Call(h)
		f.LocalSet(z)
		f.LocalGet(0)
		f.I64Const(3)
		f.I64Mul()
		f.GlobalSet(1)
		f.LocalGet(z)
		f.I64Const(0)
		f.Op(wasm.OpI64GeS)
		f.LocalGet(z)
		f.I64Const(100)
		f.Op(wasm.OpI64LeS)
		f.I32And()
		f.Op(wasm.OpI64ExtendI32U)
		f.LocalGet(z)
		f.I64Add()
		f.GlobalGet(1)
		f.I64Add()
	}, func(x, y uint64) uint64 {
		r := 3*y + 1
		return b2u(int64(r) >= 0 && int64(r) <= 100) + r + 3*x
	}},
	{"i32.load8_u and i64.load8_u of one address, and the signed pair", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnLoad(f, wasm.OpI32Load8U, 1)
		f.Op(wasm.OpI64ExtendI32U)
		vnLoad(f, wasm.OpI64Load8U, 1)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		vnLoad(f, wasm.OpI32Load8S, 1)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
		vnLoad(f, wasm.OpI64Load8S, 1)
		f.I64Const(7)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 {
		b := x >> 8 & 0xFF
		return b + 3*b + 5*uint64(uint32(int32(int8(b)))) + 7*uint64(int64(int8(b)))
	}},
	{"i32.load and i64.load32_u of one address, and i64.load32_s", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnLoad(f, wasm.OpI32Load, 2)
		f.Op(wasm.OpI64ExtendI32U)
		vnLoad(f, wasm.OpI64Load32U, 2)
		f.I64Const(3)
		f.I64Mul()
		f.I64Add()
		vnLoad(f, wasm.OpI64Load32S, 2)
		f.I64Const(5)
		f.I64Mul()
		f.I64Add()
	}, func(x, y uint64) uint64 {
		w := uint64(uint32(x >> 16))
		return w + 3*w + 5*uint64(int64(int32(uint32(w))))
	}},
	{"a local read after the local it copied was overwritten", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalSet(z) // move z ← x: reads of z may read x while x holds it
		f.LocalGet(1)
		f.LocalSet(0)
		f.LocalGet(z)
		f.LocalGet(0)
		f.I64Sub()
	}, func(x, y uint64) uint64 { return x - y }},
	{"a summed address whose summand was overwritten before the load", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		a, b := f.AddLocal(wasm.I32), f.AddLocal(wasm.I32)
		f.I32Const(0)
		f.LocalGet(1)
		f.I64Store(72)
		f.I32Const(0)
		f.LocalGet(0)
		f.I64Store(88)
		f.LocalGet(0) // a = 0 and b = 8, computed at run time
		f.Op(wasm.OpI32WrapI64)
		f.I32Const(0)
		f.I32And()
		f.LocalSet(a)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.I32Const(0)
		f.I32And()
		f.I32Const(8)
		f.I32Add()
		f.LocalSet(b)
		f.LocalGet(a)
		f.LocalGet(b)
		f.I32Add()
		f.I32Const(16)
		f.LocalSet(a) // the load reads 72, not a + b + 64 = 88
		f.I64Load(64)
	}, func(x, y uint64) uint64 { return y }},
	{"bounds of two widths on one loaded value, i32 first", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnTwoWidths(f, false)
	}, func(x, y uint64) uint64 { return vnTwoWidthsWant(x) }},
	{"bounds of two widths on one loaded value, i64 first", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		vnStore(f, 0, 0)
		vnTwoWidths(f, true)
	}, func(x, y uint64) uint64 { return vnTwoWidthsWant(x) }},
}

// vnTwoWidths pushes `i32.load ≥s −5 & i64.load32_u ≤s 100` of one address:
// the two loads are one value, the two comparisons see it as different
// numbers, so they are no range.
func vnTwoWidths(f *wasm.FuncBuilder, i64First bool) {
	for i := 0; i < 2; i++ {
		if (i == 0) == i64First {
			vnLoad(f, wasm.OpI64Load32U, 0)
			f.I64Const(100)
			f.Op(wasm.OpI64LeS)
		} else {
			vnLoad(f, wasm.OpI32Load, 0)
			f.I32Const(-5)
			f.Op(wasm.OpI32GeS)
		}
	}
	f.I32And()
	f.Op(wasm.OpI64ExtendI32U)
}

func vnTwoWidthsWant(x uint64) uint64 {
	w := uint32(x)
	return b2u(int32(w) >= -5 && int64(w) <= 100)
}

// vnRange is a conjunction of two signed bounds on x — x, or its low half
// wrapped to i32 — as a value, along a left-deep `and` chain behind y's low
// half, or as the condition of a branch.
type vnRange struct {
	wide         bool
	lower, upper wasm.Opcode // ge_s or gt_s; le_s or lt_s
	lo, hi       int64
	form         int // 0 value, 1 chain, 2 branch
	upperFirst   bool
}

// vnRanges crosses every bound kind with bounds at and next to the limits of
// each width, empty ranges (lo > hi) among them.
func vnRanges() []vnRange {
	var out []vnRange
	for _, wide := range []bool{false, true} {
		min, max := int64(math.MinInt32), int64(math.MaxInt32)
		ge, gt, le, lt := wasm.OpI32GeS, wasm.OpI32GtS, wasm.OpI32LeS, wasm.OpI32LtS
		if wide {
			min, max = math.MinInt64, math.MaxInt64
			ge, gt, le, lt = wasm.OpI64GeS, wasm.OpI64GtS, wasm.OpI64LeS, wasm.OpI64LtS
		}
		pairs := [][2]int64{{min, max}, {min, min}, {max, max}, {min, -1}, {0, max}, {-1, 1},
			{100, 1}, {max, min}, {max - 1, max}, {min, min + 1}, {0, 0}, {5, 7}}
		for i, p := range pairs {
			for _, lower := range []wasm.Opcode{ge, gt} {
				for _, upper := range []wasm.Opcode{le, lt} {
					for form := 0; form < 3; form++ {
						out = append(out, vnRange{wide: wide, lower: lower, upper: upper,
							lo: p[0], hi: p[1], form: form, upperFirst: (i+form)%2 == 1})
					}
				}
			}
		}
	}
	return out
}

// holds evaluates the conjunction in Go.
func (r vnRange) holds(x uint64) bool {
	v := int64(x)
	if !r.wide {
		v = int64(int32(uint32(x)))
	}
	test := func(op wasm.Opcode, c int64) bool {
		switch op {
		case wasm.OpI32GeS, wasm.OpI64GeS:
			return v >= c
		case wasm.OpI32GtS, wasm.OpI64GtS:
			return v > c
		case wasm.OpI32LeS, wasm.OpI64LeS:
			return v <= c
		}
		return v < c
	}
	return test(r.lower, r.lo) && test(r.upper, r.hi)
}

func (r vnRange) hazard() vnHazard {
	bound := func(f *wasm.FuncBuilder, op wasm.Opcode, c int64) {
		f.LocalGet(0)
		if r.wide {
			f.I64Const(c)
		} else {
			f.Op(wasm.OpI32WrapI64)
			f.I32Const(int32(c))
		}
		f.Op(op)
	}
	first, second := func(f *wasm.FuncBuilder) { bound(f, r.lower, r.lo) }, func(f *wasm.FuncBuilder) { bound(f, r.upper, r.hi) }
	if r.upperFirst {
		first, second = second, first
	}
	forms := [3]string{"value", "chain", "branch"}
	name := fmt.Sprintf("range %v %d, %v %d as a %s", r.lower, r.lo, r.upper, r.hi, forms[r.form])
	return vnHazard{name, func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		switch r.form {
		case 0:
			first(f)
			second(f)
			f.I32And()
			f.Op(wasm.OpI64ExtendI32U)
		case 1:
			f.LocalGet(1)
			f.Op(wasm.OpI32WrapI64)
			first(f)
			f.I32And()
			second(f)
			f.I32And()
			f.Op(wasm.OpI64ExtendI32U)
		case 2:
			f.Block(wasm.BlockOf(wasm.I64))
			f.I64Const(111)
			first(f)
			second(f)
			f.I32And()
			f.BrIf(0)
			f.Drop()
			f.I64Const(222)
			f.End()
		}
	}, func(x, y uint64) uint64 {
		in := r.holds(x)
		switch r.form {
		case 0:
			return b2u(in)
		case 1:
			return uint64(uint32(y)) & b2u(in)
		}
		if in {
			return 111
		}
		return 222
	}}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// vnModule builds the module of one hazard.
func vnModule(hz vnHazard) []byte {
	b := wasm.NewModuleBuilder()
	b.AddMemory(2, 4)
	b.AddGlobal(wasm.I64, true, 0)
	b.AddGlobal(wasm.I64, true, 0)
	hType := wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}}
	h := b.NewFunc("h", hType)
	h.I32Const(0)
	h.LocalGet(0)
	h.I64Store(8)
	h.GlobalGet(0)
	h.LocalGet(0)
	h.I64Add()
	h.GlobalSet(0)
	h.LocalGet(0)
	h.I64Const(3)
	h.I64Mul()
	h.I64Const(1)
	h.I64Add()
	f := b.NewFunc("p", wasm.FuncType{Params: []wasm.ValType{wasm.I64, wasm.I64}, Results: []wasm.ValType{wasm.I64}})
	hz.body(f, f.AddLocal(wasm.I64), h.Index, b.AddType(hType))
	b.Export("p", wasm.ExternFunc, f.Index)
	m := b.Module()
	m.HasTable, m.TableMin = true, 1
	m.Elems = []wasm.ElemSegment{{Offset: 0, Funcs: []uint32{h.Index}}}
	return wasm.Encode(m)
}

// TestValueNumberingDifferential runs the hazards and every range on both
// tiers against Go.
func TestValueNumberingDifferential(t *testing.T) {
	var xs []uint64
	for _, c := range []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32 - 1, math.MinInt32, math.MinInt32 + 1,
		-2, -1, 0, 1, 2, 4, 5, 6, 7, 8, 99, 100, 101, math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1,
		math.MaxInt64 - 1, math.MaxInt64, 0x0123456789ABCDEF} {
		xs = append(xs, uint64(c))
	}
	ys := []uint64{0, 1, 7, 0x80, 0xFFFF_FFFF, 1<<63 | 0x85, 0xFEDCBA9876543210}
	cases := vnHazards
	for _, r := range vnRanges() {
		cases = append(cases, r.hazard())
	}
	for i, hz := range cases {
		ys := ys
		if i >= len(vnHazards) {
			ys = ys[:3] // only the chain form reads y
		}
		bin := vnModule(hz)
		for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
			mod, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatalf("%s (%v): %v", hz.name, tier, err)
			}
			for _, x := range xs {
				for _, y := range ys {
					inst, err := mod.Instantiate(Imports{})
					if err != nil {
						t.Fatal(err)
					}
					want := hz.want(x, y)
					if got, err := inst.Call("p", x, y); err != nil || got[0] != want {
						t.Errorf("%s (%v): p(%#x, %#x) = %#x, %v; want %#x", hz.name, tier, x, y, got, err, want)
					}
				}
			}
		}
	}
}
