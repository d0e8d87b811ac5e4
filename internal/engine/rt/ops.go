package rt

import (
	"math"
	"math/bits"
)

// Numeric helpers with exact WebAssembly semantics, shared by the run loop and
// the optimizer's constant folding.
// Values are passed as raw 64-bit patterns; i32 values are zero-extended.

// I32DivS performs signed 32-bit division, trapping on division by zero and
// on overflow (INT32_MIN / -1).
func I32DivS(a, b uint64) uint64 {
	x, y := int32(uint32(a)), int32(uint32(b))
	if y == 0 {
		Trap("integer divide by zero")
	}
	if x == math.MinInt32 && y == -1 {
		Trap("integer overflow")
	}
	return uint64(uint32(x / y))
}

// I32DivU performs unsigned 32-bit division, trapping on division by zero.
func I32DivU(a, b uint64) uint64 {
	x, y := uint32(a), uint32(b)
	if y == 0 {
		Trap("integer divide by zero")
	}
	return uint64(x / y)
}

// I32RemS computes the signed 32-bit remainder, trapping on zero divisor.
func I32RemS(a, b uint64) uint64 {
	x, y := int32(uint32(a)), int32(uint32(b))
	if y == 0 {
		Trap("integer divide by zero")
	}
	if x == math.MinInt32 && y == -1 {
		return 0
	}
	return uint64(uint32(x % y))
}

// I32RemU computes the unsigned 32-bit remainder, trapping on zero divisor.
func I32RemU(a, b uint64) uint64 {
	x, y := uint32(a), uint32(b)
	if y == 0 {
		Trap("integer divide by zero")
	}
	return uint64(x % y)
}

// I64DivS performs signed 64-bit division with wasm trap semantics.
func I64DivS(a, b uint64) uint64 {
	x, y := int64(a), int64(b)
	if y == 0 {
		Trap("integer divide by zero")
	}
	if x == math.MinInt64 && y == -1 {
		Trap("integer overflow")
	}
	return uint64(x / y)
}

// I64DivU performs unsigned 64-bit division with wasm trap semantics.
func I64DivU(a, b uint64) uint64 {
	if b == 0 {
		Trap("integer divide by zero")
	}
	return a / b
}

// I64RemS computes the signed 64-bit remainder with wasm trap semantics.
func I64RemS(a, b uint64) uint64 {
	x, y := int64(a), int64(b)
	if y == 0 {
		Trap("integer divide by zero")
	}
	if x == math.MinInt64 && y == -1 {
		return 0
	}
	return uint64(x % y)
}

// I64RemU computes the unsigned 64-bit remainder with wasm trap semantics.
func I64RemU(a, b uint64) uint64 {
	if b == 0 {
		Trap("integer divide by zero")
	}
	return a % b
}

// Rotl32 rotates the low 32 bits left.
func Rotl32(a, b uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), int(b&31))) }

// Rotr32 rotates the low 32 bits right.
func Rotr32(a, b uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), -int(b&31))) }

// Rotl64 rotates 64 bits left.
func Rotl64(a, b uint64) uint64 { return bits.RotateLeft64(a, int(b&63)) }

// Rotr64 rotates 64 bits right.
func Rotr64(a, b uint64) uint64 { return bits.RotateLeft64(a, -int(b&63)) }

// F32 returns the float32 for raw bits.
func F32(a uint64) float32 { return math.Float32frombits(uint32(a)) }

// F32Bits returns raw bits of a float32, zero-extended.
func F32Bits(f float32) uint64 { return uint64(math.Float32bits(f)) }

// F64 returns the float64 for raw bits.
func F64(a uint64) float64 { return math.Float64frombits(a) }

// F64Bits returns raw bits of a float64.
func F64Bits(f float64) uint64 { return math.Float64bits(f) }

// B2i converts a bool to wasm's i32 0/1.
func B2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// FMin32 implements f32.min: NaN-propagating, -0 < +0.
func FMin32(a, b float32) float32 {
	switch {
	case a != a || b != b:
		return float32(math.NaN())
	case a == 0 && b == 0:
		if math.Signbit(float64(a)) || math.Signbit(float64(b)) {
			return float32(math.Copysign(0, -1))
		}
		return 0
	case a < b:
		return a
	default:
		return b
	}
}

// FMax32 implements f32.max: NaN-propagating, +0 > -0.
func FMax32(a, b float32) float32 {
	switch {
	case a != a || b != b:
		return float32(math.NaN())
	case a == 0 && b == 0:
		if !math.Signbit(float64(a)) || !math.Signbit(float64(b)) {
			return 0
		}
		return float32(math.Copysign(0, -1))
	case a > b:
		return a
	default:
		return b
	}
}

// FMin64 implements f64.min.
func FMin64(a, b float64) float64 {
	switch {
	case a != a || b != b:
		return math.NaN()
	case a == 0 && b == 0:
		if math.Signbit(a) || math.Signbit(b) {
			return math.Copysign(0, -1)
		}
		return 0
	case a < b:
		return a
	default:
		return b
	}
}

// FMax64 implements f64.max.
func FMax64(a, b float64) float64 {
	switch {
	case a != a || b != b:
		return math.NaN()
	case a == 0 && b == 0:
		if !math.Signbit(a) || !math.Signbit(b) {
			return 0
		}
		return math.Copysign(0, -1)
	case a > b:
		return a
	default:
		return b
	}
}

// TruncSat helpers: wasm's non-saturating truncations trap outside range.

// TruncF32ToI32S truncates an f32 to signed i32, trapping per spec.
func TruncF32ToI32S(a uint64) uint64 { return TruncF64ToI32S(F64Bits(float64(F32(a)))) }

// TruncF32ToI32U truncates an f32 to unsigned i32, trapping per spec.
func TruncF32ToI32U(a uint64) uint64 { return TruncF64ToI32U(F64Bits(float64(F32(a)))) }

// TruncF32ToI64S truncates an f32 to signed i64, trapping per spec.
func TruncF32ToI64S(a uint64) uint64 { return TruncF64ToI64S(F64Bits(float64(F32(a)))) }

// TruncF32ToI64U truncates an f32 to unsigned i64, trapping per spec.
func TruncF32ToI64U(a uint64) uint64 { return TruncF64ToI64U(F64Bits(float64(F32(a)))) }

// TruncF64ToI32S truncates an f64 to signed i32, trapping per spec.
func TruncF64ToI32S(a uint64) uint64 {
	f := F64(a)
	if f != f {
		Trap("invalid conversion to integer")
	}
	t := math.Trunc(f)
	if t < math.MinInt32 || t > math.MaxInt32 {
		Trap("integer overflow")
	}
	return uint64(uint32(int32(t)))
}

// TruncF64ToI32U truncates an f64 to unsigned i32, trapping per spec.
func TruncF64ToI32U(a uint64) uint64 {
	f := F64(a)
	if f != f {
		Trap("invalid conversion to integer")
	}
	t := math.Trunc(f)
	if t < 0 || t > math.MaxUint32 {
		Trap("integer overflow")
	}
	return uint64(uint32(t))
}

// TruncF64ToI64S truncates an f64 to signed i64, trapping per spec.
func TruncF64ToI64S(a uint64) uint64 {
	f := F64(a)
	if f != f {
		Trap("invalid conversion to integer")
	}
	t := math.Trunc(f)
	// Valid range is [-2^63, 2^63); both bounds are exactly representable.
	if t < -9223372036854775808.0 || t >= 9223372036854775808.0 {
		Trap("integer overflow")
	}
	return uint64(int64(t))
}

// TruncF64ToI64U truncates an f64 to unsigned i64, trapping per spec.
func TruncF64ToI64U(a uint64) uint64 {
	f := F64(a)
	if f != f {
		Trap("invalid conversion to integer")
	}
	t := math.Trunc(f)
	// Valid range is [0, 2^64).
	if t < 0 || t >= 18446744073709551616.0 {
		Trap("integer overflow")
	}
	return uint64(t)
}
