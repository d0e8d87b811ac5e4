package rt

import (
	"math"
	"testing"
	"testing/quick"

	"wasmdb/internal/engine/wmem"
)

func expectTrap(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("%s: expected trap", name)
		} else if _, ok := r.(*TrapError); !ok {
			t.Errorf("%s: wrong panic type %T", name, r)
		}
	}()
	fn()
}

func TestDivisionTraps(t *testing.T) {
	expectTrap(t, "i32 div by zero", func() { I32DivS(1, 0) })
	expectTrap(t, "i32 div overflow", func() { I32DivS(uint64(0x80000000), uint64(uint32(0xFFFFFFFF))) })
	expectTrap(t, "i32 divu by zero", func() { I32DivU(1, 0) })
	expectTrap(t, "i64 div by zero", func() { I64DivS(1, 0) })
	expectTrap(t, "i64 div overflow", func() { I64DivS(1<<63, ^uint64(0)) })
	expectTrap(t, "i64 rem by zero", func() { I64RemS(1, 0) })

	if I32RemS(uint64(0x80000000), uint64(uint32(0xFFFFFFFF))) != 0 {
		t.Error("INT32_MIN % -1 must be 0")
	}
	if I64RemS(1<<63, ^uint64(0)) != 0 {
		t.Error("INT64_MIN % -1 must be 0")
	}
	if I32DivS(uint64(uint32(4294967289)), uint64(uint32(2))) != uint64(uint32(4294967293)) {
		t.Error("-7/2 should be -3")
	}
}

func TestTruncTraps(t *testing.T) {
	expectTrap(t, "trunc NaN", func() { TruncF64ToI32S(F64Bits(math.NaN())) })
	expectTrap(t, "trunc +inf", func() { TruncF64ToI64S(F64Bits(math.Inf(1))) })
	expectTrap(t, "trunc overflow i32", func() { TruncF64ToI32S(F64Bits(3e9)) })
	expectTrap(t, "trunc negative u32", func() { TruncF64ToI32U(F64Bits(-1.5)) })
	expectTrap(t, "trunc 2^63 i64", func() { TruncF64ToI64S(F64Bits(9.3e18)) })
	if TruncF64ToI32S(F64Bits(-2147483648.0)) != uint64(0x80000000) {
		t.Error("INT32_MIN must be exactly convertible")
	}
	if TruncF64ToI64S(F64Bits(-9223372036854775808.0)) != 1<<63 {
		t.Error("INT64_MIN must be exactly convertible")
	}
	if TruncF64ToI32S(F64Bits(-3.99)) != uint64(uint32(0xFFFFFFFD)) {
		t.Error("trunc(-3.99) != -3")
	}
}

func TestFloatMinMaxSemantics(t *testing.T) {
	nan := math.NaN()
	if !math.IsNaN(FMin64(nan, 1)) || !math.IsNaN(FMax64(1, nan)) {
		t.Error("NaN must propagate")
	}
	if !math.Signbit(FMin64(0, math.Copysign(0, -1))) {
		t.Error("min(+0,-0) must be -0")
	}
	if math.Signbit(FMax64(0, math.Copysign(0, -1))) {
		t.Error("max(+0,-0) must be +0")
	}
	if FMin64(1, 2) != 1 || FMax64(1, 2) != 2 {
		t.Error("plain min/max")
	}
}

func TestRotations(t *testing.T) {
	if Rotl32(0x80000000, 1) != 1 {
		t.Error("rotl32")
	}
	if Rotr32(1, 1) != 0x80000000 {
		t.Error("rotr32")
	}
	f := func(v uint64, k uint8) bool {
		return Rotr64(Rotl64(v, uint64(k)), uint64(k)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameArena(t *testing.T) {
	env := &Env{}
	a := env.Frame(16)
	a[0] = 7
	b := env.Frame(1 << 16) // forces growth
	b[0] = 9
	if a2 := env.arena[:16]; a2[0] != 7 {
		t.Error("growth lost existing frame data")
	}
	env.PopFrame(1 << 16)
	env.PopFrame(16)
	c := env.Frame(4)
	for _, v := range c {
		if v != 0 {
			t.Error("frame not zeroed")
		}
	}
	env.Reset()
	if env.top != 0 || env.Depth != 0 {
		t.Error("reset")
	}
}

func TestCallDepthTrap(t *testing.T) {
	env := &Env{Depth: MaxCallDepth}
	expectTrap(t, "depth", env.Enter)
}

func TestCheckAddr(t *testing.T) {
	if got := CheckAddr(128, 4); got != 128 {
		t.Errorf("CheckAddr = %d", got)
	}
	if got := CheckAddr(1<<32-8, 8); got != 1<<32-8 {
		t.Errorf("CheckAddr at the last word = %#x", got)
	}
	defer func() {
		if tr, ok := recover().(*wmem.Trap); !ok || tr.Addr != 15 || tr.Size != 8 {
			t.Errorf("wraparound access: trap %v, want one at address 0xf", tr)
		}
	}()
	CheckAddr(0xFFFFFFFF+16, 8)
}

// TestFrameArenaRecycled: a released arena serves the next Env's frames, and
// what the first Env left in it never shows through a new frame.
func TestFrameArenaRecycled(t *testing.T) {
	a := NewEnv(nil)
	f := a.Frame(64)
	for i := range f {
		f[i] = ^uint64(0)
	}
	a.Release()
	if a.arena != nil || a.top != 0 {
		t.Fatal("Release kept the arena")
	}
	a.Release() // a second Release is a no-op

	recycled := false
	for range 8 { // the race detector's sync.Pool drops a quarter of its puts
		b := NewEnv(nil)
		for i, v := range b.Frame(64) {
			if v != 0 {
				t.Fatalf("slot %d of a recycled arena reads %#x, want 0", i, v)
			}
		}
		recycled = recycled || b.box != nil
		b.Release()
	}
	if !recycled {
		t.Error("no Env took its arena from the pool")
	}
}
