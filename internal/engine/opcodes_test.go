package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"wasmdb/internal/wasm"
)

// TestAllNumericOpcodes exercises every numeric instruction on both tiers
// against host-computed expectations, over normal and edge-case operands, with
// each operand in each place the baseline compiler's abstract stack can find
// it: a canonical register, a local, a constant — nine functions per binary
// instruction, three per unary one.
func TestAllNumericOpcodes(t *testing.T) {
	f32 := func(x float32) uint64 { return uint64(math.Float32bits(x)) }
	f64 := func(x float64) uint64 { return math.Float64bits(x) }
	i32 := func(x int32) uint64 { return uint64(uint32(x)) }

	negI64 := func(x uint64) uint64 { return ^x + 1 }
	type opcase struct {
		op   wasm.Opcode
		a, b uint64 // b unused for unary ops
		want uint64
	}
	cases := []opcase{
		// i32 arithmetic, incl. wraparound and negative operands.
		{wasm.OpI32Add, i32(2147483647), i32(1), i32(-2147483648)},
		{wasm.OpI32Sub, i32(5), i32(9), i32(-4)},
		{wasm.OpI32Mul, i32(65536), i32(65536), 0},
		{wasm.OpI32DivS, i32(-7), i32(2), i32(-3)},
		{wasm.OpI32DivU, i32(-7), i32(2), uint64((uint32(4294967289)) / 2)},
		{wasm.OpI32RemS, i32(-7), i32(2), i32(-1)},
		{wasm.OpI32RemU, i32(7), i32(3), 1},
		{wasm.OpI32And, 0b1100, 0b1010, 0b1000},
		{wasm.OpI32Or, 0b1100, 0b1010, 0b1110},
		{wasm.OpI32Xor, 0b1100, 0b1010, 0b0110},
		{wasm.OpI32Shl, 1, 35, 8}, // shift count mod 32
		{wasm.OpI32ShrS, i32(-8), 1, i32(-4)},
		{wasm.OpI32ShrU, i32(-8), 1, uint64(uint32(4294967288) >> 1)},
		{wasm.OpI32Rotl, 0x80000001, 1, 0x00000003},
		{wasm.OpI32Rotr, 0x00000003, 1, 0x80000001},
		{wasm.OpI32Clz, 0x00010000, 0, 15},
		{wasm.OpI32Ctz, 0x00010000, 0, 16},
		{wasm.OpI32Popcnt, 0xF0F0F0F0, 0, 16},
		{wasm.OpI32Eqz, 0, 0, 1},
		{wasm.OpI32Eqz, 7, 0, 0},

		// i32 comparisons (signedness matters).
		{wasm.OpI32LtS, i32(-1), i32(1), 1},
		{wasm.OpI32LtU, i32(-1), i32(1), 0},
		{wasm.OpI32GtS, i32(-1), i32(1), 0},
		{wasm.OpI32GtU, i32(-1), i32(1), 1},
		{wasm.OpI32LeS, i32(3), i32(3), 1},
		{wasm.OpI32GeU, i32(3), i32(4), 0},
		{wasm.OpI32Eq, 42, 42, 1},
		{wasm.OpI32Ne, 42, 43, 1},
		{wasm.OpI32LeU, i32(-1), i32(1), 0},
		{wasm.OpI32GeS, i32(-1), i32(1), 0},
		{wasm.OpI32GeS, i32(1), i32(-1), 1},

		// i64.
		{wasm.OpI64Add, math.MaxUint64, 1, 0},
		{wasm.OpI64Sub, 1, 2, math.MaxUint64},
		{wasm.OpI64Mul, 1 << 63, 2, 0},
		{wasm.OpI64DivS, negI64(9), 2, negI64(4)},
		{wasm.OpI64DivU, negI64(9), 2, (math.MaxUint64 - 8) / 2},
		{wasm.OpI64RemS, negI64(9), 2, negI64(1)},
		{wasm.OpI64RemU, 9, 4, 1},
		{wasm.OpI64Shl, 1, 67, 8},
		{wasm.OpI64ShrS, negI64(16), 2, negI64(4)},
		{wasm.OpI64ShrU, 1 << 63, 63, 1},
		{wasm.OpI64Rotl, 1 << 63, 1, 1},
		{wasm.OpI64Rotr, 1, 1, 1 << 63},
		{wasm.OpI64Clz, 1, 0, 63},
		{wasm.OpI64Ctz, 1 << 40, 0, 40},
		{wasm.OpI64Popcnt, math.MaxUint64, 0, 64},
		{wasm.OpI64Eqz, 0, 0, 1},
		{wasm.OpI64LtS, negI64(5), 5, 1},
		{wasm.OpI64LtU, negI64(5), 5, 0},
		{wasm.OpI64GeS, 5, 5, 1},
		{wasm.OpI64Eq, 1 << 40, 1 << 40, 1},
		{wasm.OpI64Ne, 1 << 40, 1, 1},
		{wasm.OpI64GtS, negI64(5), 5, 0},
		{wasm.OpI64GtU, negI64(5), 5, 1},
		{wasm.OpI64LeS, negI64(5), 5, 1},
		{wasm.OpI64LeU, negI64(5), 5, 0},
		{wasm.OpI64GeU, 5, negI64(5), 0},
		{wasm.OpI64And, 0xFF00FF00FF, 0x0FF00FF00F, 0x0F000F000F},
		{wasm.OpI64Or, 1 << 40, 1, 1<<40 | 1},
		{wasm.OpI64Xor, math.MaxUint64, 1 << 63, math.MaxInt64},

		{wasm.OpI64RemS, 1 << 63, negI64(1), 0},

		// f64 arithmetic and comparisons, incl. NaN and signed zero.
		{wasm.OpF64Add, f64(1.5), f64(2.25), f64(3.75)},
		{wasm.OpF64Sub, f64(1), f64(0.5), f64(0.5)},
		{wasm.OpF64Mul, f64(3), f64(-2), f64(-6)},
		{wasm.OpF64Div, f64(1), f64(0), f64(math.Inf(1))},
		{wasm.OpF64Min, f64(0), f64(math.Copysign(0, -1)), f64(math.Copysign(0, -1))},
		{wasm.OpF64Max, f64(1), f64(2), f64(2)},
		{wasm.OpF64Abs, f64(-3.5), 0, f64(3.5)},
		{wasm.OpF64Neg, f64(3.5), 0, f64(-3.5)},
		{wasm.OpF64Sqrt, f64(9), 0, f64(3)},
		{wasm.OpF64Ceil, f64(1.2), 0, f64(2)},
		{wasm.OpF64Floor, f64(-1.2), 0, f64(-2)},
		{wasm.OpF64Trunc, f64(-1.7), 0, f64(-1)},
		{wasm.OpF64Nearest, f64(2.5), 0, f64(2)}, // round half to even
		{wasm.OpF64Copysign, f64(3), f64(-1), f64(-3)},
		{wasm.OpF64Lt, f64(math.NaN()), f64(1), 0},
		{wasm.OpF64Ge, f64(math.NaN()), f64(1), 0},
		{wasm.OpF64Ne, f64(math.NaN()), f64(math.NaN()), 1},
		{wasm.OpF64Eq, f64(0), f64(math.Copysign(0, -1)), 1},

		// f32.
		{wasm.OpF32Add, f32(0.5), f32(0.25), f32(0.75)},
		{wasm.OpF32Mul, f32(4), f32(2.5), f32(10)},
		{wasm.OpF32Div, f32(1), f32(4), f32(0.25)},
		{wasm.OpF32Min, f32(float32(math.NaN())), f32(1), f32(float32(math.NaN()))},
		{wasm.OpF32Abs, f32(-2), 0, f32(2)},
		{wasm.OpF32Neg, f32(2), 0, f32(-2)},
		{wasm.OpF32Sqrt, f32(16), 0, f32(4)},
		{wasm.OpF32Lt, f32(1), f32(2), 1},

		// Conversions.
		{wasm.OpI32WrapI64, 0x1_0000_0005, 0, 5},
		{wasm.OpI64ExtendI32S, i32(-1), 0, math.MaxUint64},
		{wasm.OpI64ExtendI32U, i32(-1), 0, 0xFFFFFFFF},
		{wasm.OpI32TruncF64S, f64(-2.9), 0, i32(-2)},
		{wasm.OpI32TruncF64U, f64(3.9), 0, 3},
		{wasm.OpI64TruncF64S, f64(-1e15), 0, negI64(1000000000000000)},
		{wasm.OpI64TruncF32S, f32(1024), 0, 1024},
		{wasm.OpF64ConvertI32S, i32(-3), 0, f64(-3)},
		{wasm.OpF64ConvertI32U, i32(-1), 0, f64(4294967295)},
		{wasm.OpF64ConvertI64S, negI64(7), 0, f64(-7)},
		{wasm.OpF64ConvertI64U, math.MaxUint64, 0, f64(18446744073709551615)},
		{wasm.OpF32ConvertI32S, i32(2), 0, f32(2)},
		{wasm.OpF32ConvertI64S, 3, 0, f32(3)},
		{wasm.OpF32DemoteF64, f64(1.5), 0, f32(1.5)},
		{wasm.OpF64PromoteF32, f32(1.5), 0, f64(1.5)},
		{wasm.OpI32ReinterpretF32, f32(1), 0, f32(1)},
		{wasm.OpI64ReinterpretF64, f64(1), 0, f64(1)},
		{wasm.OpF32ReinterpretI32, 0x3F800000, 0, 0x3F800000},
		{wasm.OpF64ReinterpretI64, f64(2), 0, f64(2)},
		{wasm.OpI32Extend8S, 0x80, 0, i32(-128)},
		{wasm.OpI32Extend16S, 0x8000, 0, i32(-32768)},
		{wasm.OpI64Extend8S, 0xFF, 0, math.MaxUint64},
		{wasm.OpI64Extend16S, 0x8000, 0, negI64(32768)},
		{wasm.OpI64Extend32S, 0x80000000, 0, negI64(2147483648)},
	}
	// Sanity: the host-side expectations above double-check a few with
	// computed values.
	if cases[10].want != uint64(1<<3) || bits.RotateLeft32(0x80000001, 1) != 3 {
		t.Fatal("self-check failed")
	}

	// Traps, which the table above cannot hold; the matrix below puts the
	// zero divisor in a constant too.
	type trapcase struct {
		opcase
		trap string
	}
	all := []trapcase{
		{opcase{op: wasm.OpI32DivS, a: i32(7)}, "integer divide by zero"},
		{opcase{op: wasm.OpI32DivS, a: i32(math.MinInt32), b: i32(-1)}, "integer overflow"},
		{opcase{op: wasm.OpI32RemU, a: i32(7)}, "integer divide by zero"},
		{opcase{op: wasm.OpI64DivU, a: 7}, "integer divide by zero"},
		{opcase{op: wasm.OpI64RemS, a: 7}, "integer divide by zero"},
		{opcase{op: wasm.OpI32TruncF64S, a: f64(3e10)}, "integer overflow"},
	}
	for _, c := range cases {
		all = append(all, trapcase{opcase: c})
	}

	// The places an operand can be: "register" wraps the parameter in a block,
	// whose end leaves its result in the position's canonical register.
	const (
		inRegister = iota
		inLocal
		inConstant
		numPlaces
	)
	constOps := map[wasm.ValType]wasm.Opcode{wasm.I32: wasm.OpI32Const, wasm.I64: wasm.OpI64Const,
		wasm.F32: wasm.OpF32Const, wasm.F64: wasm.OpF64Const}
	for _, c := range all {
		in, out, ok := c.op.InOut()
		if !ok || out != 1 {
			t.Fatalf("%s: unexpected signature", c.op)
		}
		sigIn := operandTypes(c.op, in)
		rt0, _ := c.op.ResultType()
		args := []uint64{c.a, c.b}[:in]

		b := wasm.NewModuleBuilder()
		var names []string
		for places := 0; places < numPlaces*numPlaces; places++ {
			if in == 1 && places >= numPlaces {
				break
			}
			name := fmt.Sprintf("f%d%d", places%numPlaces, places/numPlaces)
			f := b.NewFunc(name, wasm.FuncType{Params: sigIn, Results: []wasm.ValType{rt0}})
			for pi, ty := range sigIn {
				place := places % numPlaces
				if pi == 1 {
					place = places / numPlaces
				}
				switch place {
				case inRegister:
					f.Block(wasm.BlockOf(ty))
					f.LocalGet(f.Param(pi))
					f.End()
				case inLocal:
					f.LocalGet(f.Param(pi))
				case inConstant:
					f.Emit(constOps[ty], args[pi], 0)
				}
			}
			f.Op(c.op)
			b.Export(name, wasm.ExternFunc, f.Index)
			names = append(names, name)
		}
		bin := b.Bytes()

		for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
			m, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatalf("%s (%v): compile: %v", c.op, tier, err)
			}
			inst, err := m.Instantiate(Imports{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				got, err := inst.Call(name, args...)
				switch {
				case c.trap != "":
					if err == nil || !strings.Contains(err.Error(), c.trap) {
						t.Errorf("%s(%#x, %#x) %s on %v = %#x, %v; want trap %q", c.op, c.a, c.b, name, tier, got, err, c.trap)
					}
				case err != nil:
					t.Errorf("%s %s (%v): %v", c.op, name, tier, err)
				case !sameBits(c.op, got[0], c.want):
					t.Errorf("%s(%#x, %#x) %s on %v = %#x, want %#x",
						c.op, c.a, c.b, name, tier, got[0], c.want)
				}
			}
		}
	}
}

// sameBits compares results, treating any NaN pattern of the right width as
// equal to any other NaN.
func sameBits(op wasm.Opcode, got, want uint64) bool {
	if got == want {
		return true
	}
	if rt0, ok := op.ResultType(); ok {
		switch rt0 {
		case wasm.F64:
			g, w := math.Float64frombits(got), math.Float64frombits(want)
			return math.IsNaN(g) && math.IsNaN(w)
		case wasm.F32:
			g := math.Float32frombits(uint32(got))
			w := math.Float32frombits(uint32(want))
			return g != g && w != w
		}
	}
	return false
}

// operandTypes recovers the operand value types of a fixed-signature opcode
// by name inspection (test-only helper).
func operandTypes(op wasm.Opcode, n int) []wasm.ValType {
	name := op.String()
	var t wasm.ValType
	switch {
	case len(name) >= 3 && name[:3] == "i32":
		t = wasm.I32
	case len(name) >= 3 && name[:3] == "i64":
		t = wasm.I64
	case len(name) >= 3 && name[:3] == "f32":
		t = wasm.F32
	case len(name) >= 3 && name[:3] == "f64":
		t = wasm.F64
	default:
		panic("unknown prefix " + name)
	}
	// Conversions name their source after the underscore.
	src := t
	for _, suffix := range []struct {
		s  string
		vt wasm.ValType
	}{
		{"_i32_s", wasm.I32}, {"_i32_u", wasm.I32},
		{"_i64_s", wasm.I64}, {"_i64_u", wasm.I64},
		{"_f32_s", wasm.F32}, {"_f32_u", wasm.F32},
		{"_f64_s", wasm.F64}, {"_f64_u", wasm.F64},
		{"_i32", wasm.I32}, {"_i64", wasm.I64},
		{"_f32", wasm.F32}, {"_f64", wasm.F64},
	} {
		if hasSuffix(name, suffix.s) {
			src = suffix.vt
			break
		}
	}
	out := make([]wasm.ValType, n)
	for i := range out {
		out[i] = src
	}
	return out
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
