package engine

import (
	"strings"
	"testing"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// Both compilers start from one emitter, so agreement between the tiers says
// nothing about a mistake they share. The cases below aim at what the
// emitter's abstract stack can get wrong — a slot that says "the value is in
// local x" while x is overwritten, values that must be in their registers
// when control splits or merges, constants in every operand position — and
// check both tiers against the result computed here in Go.

// hazard is one function p(x i64, y i64) i64 over locals x, y, an i64 local
// z and a module with a global, a memory page, and helper h(v) = 3v+1 (which
// also adds v to the global) reachable by call and through table slot 0.
type hazard struct {
	name string
	body func(f *wasm.FuncBuilder, z wasm.Local, h, hType uint32)
	// want returns the result, or the message of the trap the call ends in.
	want func(x, y uint64) (res uint64, trap string)
}

func ok(v uint64) (uint64, string) { return v, "" }

var hazards = []hazard{
	{"alias of x alive across local.set x", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.LocalSet(0)
		f.LocalGet(0)
		f.I64Sub()
	}, func(x, y uint64) (uint64, string) { return ok(x - y) }},
	{"alias of x alive across local.tee x", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.LocalTee(0)
		f.I64Add()
		f.LocalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) { return ok((x + y) ^ y) }},
	{"alias of x alive across a destination forwarded into x", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Add()
		f.LocalSet(0)
		f.LocalGet(0)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) { return ok(x * (x + y)) }},
	{"alias of x alive across a tee forwarded into x", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add()
		f.LocalTee(0)
		f.I64Add()
		f.LocalGet(0)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) { return ok((x + x + 1) * (x + 1)) }},
	{"the stack copy of a forwarded tee", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Add()
		f.LocalTee(z)
		f.LocalGet(z)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) { return ok((x + y) * (x + y)) }},
	{"two aliases, the deeper one overwritten", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.LocalGet(0)
		f.I64Const(2)
		f.I64Mul()
		f.LocalSet(0)
		f.I64Add()
		f.LocalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) { return ok((x + y) ^ (2 * x)) }},
	{"a value below the top is not the one local.set stores", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.Op(wasm.OpI64Eqz)
		f.Op(wasm.OpI64ExtendI32U)
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Add()
		f.Drop()
		f.LocalSet(z)
		f.LocalGet(z)
	}, func(x, y uint64) (uint64, string) {
		if x == 0 {
			return ok(1)
		}
		return ok(0)
	}},
	{"alias and constant across a block", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(5)
		f.Block(wasm.BlockVoid)
		f.I64Const(9)
		f.LocalSet(0)
		f.End()
		f.I64Add()
		f.LocalGet(0)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) { return ok((x + 5) * 9) }},
	{"alias and constant across a loop", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(3)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add()
		f.LocalTee(0)
		f.I64Const(10)
		f.Op(wasm.OpI64LtU)
		f.BrIf(0)
		f.End()
		f.I64Add()
		f.LocalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) {
		v := x + 1
		for v < 10 {
			v++
		}
		return ok((x + 3) ^ v)
	}},
	{"alias and constant across if/else", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(7)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.If(wasm.BlockVoid)
		f.I64Const(1)
		f.LocalSet(0)
		f.Else()
		f.I64Const(2)
		f.LocalSet(0)
		f.End()
		f.I64Add()
		f.LocalGet(0)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(x + 7)
		}
		return ok((x + 7) * 2)
	}},
	{"if arms yield an alias and a constant", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.If(wasm.BlockOf(wasm.I64))
		f.LocalGet(0)
		f.Else()
		f.I64Const(11)
		f.End()
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add()
		f.LocalSet(0)
		f.LocalGet(0)
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(x + x + 1)
		}
		return ok(11 + x + 1)
	}},
	{"alias and constant across br_if", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(2)
		f.Block(wasm.BlockVoid)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.BrIf(0)
		f.I64Const(100)
		f.LocalSet(0)
		f.End()
		f.I64Add()
		f.LocalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok((x + 2) ^ x)
		}
		return ok((x + 2) ^ 100)
	}},
	{"br_if carries an alias over a value it unwinds", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.Block(wasm.BlockOf(wasm.I64))
		f.I64Const(1000)
		f.LocalGet(0)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.BrIf(0)
		f.I64Add()
		f.End()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(x)
		}
		return ok(x + 1000)
	}},
	{"br_if carries a constant over an alias it unwinds", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.Block(wasm.BlockOf(wasm.I64))
		f.LocalGet(0)
		f.I64Const(77)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.BrIf(0)
		f.I64Add()
		f.End()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(77)
		}
		return ok(x + 77)
	}},
	{"alias and constant across br_table", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(6)
		f.Block(wasm.BlockVoid)
		f.Block(wasm.BlockVoid)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.BrTable([]uint32{0}, 1)
		f.End()
		f.I64Const(50)
		f.LocalSet(0)
		f.End()
		f.I64Add()
		f.LocalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) == 0 {
			return ok((x + 6) ^ 50)
		}
		return ok((x + 6) ^ x)
	}},
	{"br_table carries an alias over a constant it unwinds", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.Block(wasm.BlockOf(wasm.I64))
		f.I64Const(5)
		f.LocalGet(0)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.BrTable([]uint32{0}, 0)
		f.End()
	}, func(x, y uint64) (uint64, string) { return ok(x) }},
	{"alias and constant below the arguments of a call", func(f *wasm.FuncBuilder, _ wasm.Local, h, _ uint32) {
		f.LocalGet(0)
		f.I64Const(8)
		f.LocalGet(1)
		f.Call(h)
		f.I64Add()
		f.I64Add()
		f.LocalGet(0) // an alias as the argument itself
		f.Call(h)
		f.I64Add()
		f.GlobalGet(0)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) { return ok((x + 8 + 3*y + 1 + 3*x + 1) ^ (y + x)) }},
	{"alias and constant below the arguments of a call_indirect", func(f *wasm.FuncBuilder, _ wasm.Local, _, hType uint32) {
		f.LocalGet(0)
		f.I64Const(8)
		f.LocalGet(1)
		f.I32Const(0)
		f.Emit(wasm.OpCallIndirect, uint64(hType), 0)
		f.I64Add()
		f.I64Add()
	}, func(x, y uint64) (uint64, string) { return ok(x + 8 + 3*y + 1) }},
	{"return below a higher stack", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(1)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.If(wasm.BlockVoid)
		f.LocalGet(0)
		f.I64Const(2)
		f.I64Add()
		f.Return()
		f.End()
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(x + 2)
		}
		return ok(x + 1)
	}},
	{"return of a constant and of an alias", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(1)
		f.Op(wasm.OpI64Eqz)
		f.If(wasm.BlockVoid)
		f.I64Const(31)
		f.Return()
		f.End()
		f.LocalGet(1)
		f.LocalGet(0)
		f.Return()
	}, func(x, y uint64) (uint64, string) {
		if y == 0 {
			return ok(31)
		}
		return ok(x)
	}},
	{"select with aliased arms and an aliased condition", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(1)
		f.LocalGet(0)
		f.Op(wasm.OpI32WrapI64)
		f.Select()
	}, func(x, y uint64) (uint64, string) {
		if uint32(x) != 0 {
			return ok(x)
		}
		return ok(y)
	}},
	{"select with constant arms and conditions", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.I64Const(5) // select(5, x, 0) = x
		f.LocalGet(0)
		f.I32Const(0)
		f.Select()
		f.LocalGet(1) // select(y, 1<<40, 1) = y: the false arm fits no immediate
		f.I64Const(1 << 40)
		f.I32Const(1)
		f.Select()
		f.I64Add()
		f.I64Const(-1) // select(-1, 7, y): both arms constant
		f.I64Const(7)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.Select()
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok((x + y) ^ ^uint64(0))
		}
		return ok((x + y) ^ 7)
	}},
	{"select whose result overwrites an arm's local", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.LocalGet(0)
		f.I64Const(1 << 33)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.Select()
		f.LocalSet(0)
		f.LocalGet(0)
		f.I64Sub()
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(0)
		}
		return ok(x - 1<<33)
	}},
	{"a division that traps, its destination forwarded into a local", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.I64Const(123)
		f.GlobalSet(0)
		f.LocalGet(0)
		f.LocalGet(1)
		f.Op(wasm.OpI64DivS)
		f.LocalSet(0)
		f.I64Const(456)
		f.GlobalSet(0)
		f.LocalGet(0)
		f.GlobalGet(0)
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		switch {
		case y == 0:
			return 123, "integer divide by zero"
		case x == 1<<63 && y == ^uint64(0):
			return 123, "integer overflow"
		}
		return ok(uint64(int64(x)/int64(y)) + 456)
	}},
	{"a load that traps, its destination forwarded into a local", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.I64Const(123)
		f.GlobalSet(0)
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl)
		f.I64Load(8)
		f.LocalTee(0)
		f.LocalGet(0)
		f.I64Add()
		f.GlobalGet(0)
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		if uint64(uint32(y)<<3)+16 > wmem.PageSize {
			return 123, "out-of-bounds memory access"
		}
		return ok(123) // the page is zero
	}},
	{"the arms of an if end in different producers of one slot", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64)
		f.If(wasm.BlockOf(wasm.I64))
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Add()
		f.Else()
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Mul()
		f.End()
		f.LocalSet(z) // not the destination of the else arm's last instruction
		f.LocalGet(z)
	}, func(x, y uint64) (uint64, string) {
		if uint32(y) != 0 {
			return ok(x + y)
		}
		return ok(x * y)
	}},
	{"a store between a constant shift and the load of the shifted address", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		i, j := f.AddLocal(wasm.I32), f.AddLocal(wasm.I32)
		f.LocalGet(0)
		f.Op(wasm.OpI32WrapI64)
		f.I32Const(1023)
		f.I32And()
		f.LocalTee(i)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl)
		f.LocalSet(j)
		f.LocalGet(i)
		f.I32Const(3)
		f.Op(wasm.OpI32Shl) // the address, still on the stack while …
		f.LocalGet(j)
		f.LocalGet(1)
		f.I64Store(0) // … the same address is stored to
		f.I64Load(0)
	}, func(x, y uint64) (uint64, string) { return ok(y) }},
	{"a local's constant reassigned inside a loop dies at the loop label", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.I64Const(1)
		f.LocalSet(z)
		f.Block(wasm.BlockVoid)
		f.Loop(wasm.BlockVoid)
		f.LocalGet(z) // 1 only on the first iteration
		f.I64Const(2)
		f.Op(wasm.OpI64GeU)
		f.BrIf(1)
		f.I64Const(2)
		f.LocalSet(z)
		f.LocalGet(z) // 2 until the back-edge
		f.LocalGet(0)
		f.I64Add()
		f.LocalSet(0)
		f.Br(0)
		f.End()
		f.End()
		f.LocalGet(0)
		f.LocalGet(z)
		f.I64Mul()
	}, func(x, y uint64) (uint64, string) { return ok((x + 2) * 2) }},
	{"a local set to a computed value forgets its constant", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		f.I64Const(4)
		f.LocalSet(z)
		f.LocalGet(0)
		f.LocalGet(1)
		f.I64Add()
		f.LocalSet(z) // forwarded into the addition
		f.LocalGet(z)
		f.I64Const(3)
		f.I64Mul()
		f.I64Const(5)
		f.LocalSet(z)
		f.LocalGet(1)
		f.LocalSet(z) // a move
		f.LocalGet(z)
		f.I64Add()
	}, func(x, y uint64) (uint64, string) { return ok((x+y)*3 + y) }},
	{"a fused br_if with values below it to flush", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(10)
		f.I64Add() // in a register
		f.LocalGet(1)
		f.I64Const(3)
		f.Block(wasm.BlockVoid)
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add() // the comparison's operand sits above the flushed values
		f.LocalGet(1)
		f.Op(wasm.OpI64LtU)
		f.BrIf(0)
		f.I64Const(100)
		f.LocalSet(1) // the alias below was flushed before the branch
		f.End()
		f.I64Add()
		f.I64Add()
		f.LocalGet(1)
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) {
		s := x + 10 + y + 3
		if x+1 < y {
			return ok(s ^ y)
		}
		return ok(s ^ 100)
	}},
	{"a fused br_if that carries a value over ones it unwinds", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.Block(wasm.BlockOf(wasm.I64))
		f.LocalGet(0)
		f.I64Const(10)
		f.I64Add()
		f.LocalGet(1)
		f.I64Const(3)
		f.LocalGet(0)
		f.LocalGet(1)
		f.Op(wasm.OpI64LtU)
		f.BrIf(0)
		f.I64Add()
		f.I64Add()
		f.End()
	}, func(x, y uint64) (uint64, string) {
		if x < y {
			return ok(3)
		}
		return ok(x + 10 + y + 3)
	}},
	{"if on eqz", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.LocalGet(0)
		f.I64Const(5)
		f.I64Add()
		f.LocalGet(1)
		f.Op(wasm.OpI64Eqz)
		f.If(wasm.BlockOf(wasm.I64))
		f.I64Const(7)
		f.Else()
		f.LocalGet(1)
		f.Op(wasm.OpI32WrapI64) // zero when only the high half is set
		f.I32Eqz()
		f.If(wasm.BlockOf(wasm.I64))
		f.I64Const(11)
		f.Else()
		f.LocalGet(1)
		f.End()
		f.End()
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		switch {
		case y == 0:
			return ok(x + 5 + 7)
		case uint32(y) == 0:
			return ok(x + 5 + 11)
		}
		return ok(x + 5 + y)
	}},
	{"i64 constants at and beyond the branch literal's range", func(f *wasm.FuncBuilder, z wasm.Local, _, _ uint32) {
		for i, c := range []int64{1 << 40, 1 << 31, -1 << 31, -1 << 32} {
			f.Block(wasm.BlockVoid)
			f.LocalGet(0)
			f.I64Const(c)
			f.Op(wasm.OpI64GtS)
			f.BrIf(0)
			f.LocalGet(z)
			f.I64Const(1 << i)
			f.I64Add()
			f.LocalSet(z)
			f.End()
		}
		f.LocalGet(z)
	}, func(x, y uint64) (uint64, string) {
		var r uint64
		for i, c := range []int64{1 << 40, 1 << 31, -1 << 31, -1 << 32} {
			if int64(x) <= c {
				r += 1 << i
			}
		}
		return ok(r)
	}},
	{"a constant division by zero does not fold", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.I64Const(123)
		f.GlobalSet(0)
		f.I32Const(7)
		f.I32Const(0)
		f.Op(wasm.OpI32DivS)
		f.Op(wasm.OpI64ExtendI32S)
		f.I64Const(456)
		f.GlobalSet(0)
	}, func(x, y uint64) (uint64, string) { return 123, "integer divide by zero" }},
	{"a constant-condition select keeps an arm in a register", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		c := f.AddLocal(wasm.I32)
		f.I32Const(0)
		f.LocalSet(c)
		f.LocalGet(0)
		f.I64Const(1)
		f.I64Add()
		f.LocalGet(1)
		f.I64Const(2)
		f.I64Mul()
		f.LocalGet(c) // the false arm, in the register above the result's
		f.Select()
		f.LocalGet(0)
		f.I64Const(3)
		f.I64Add()
		f.LocalGet(1)
		f.I64Const(5)
		f.I64Add()
		f.I32Const(1) // the true arm, already in the result's register
		f.Select()
		f.Op(wasm.OpI64Xor)
	}, func(x, y uint64) (uint64, string) { return ok(2*y ^ (x + 3)) }},
	{"constants left of operations without a mirror", func(f *wasm.FuncBuilder, _ wasm.Local, _, _ uint32) {
		f.I64Const(100)
		f.LocalGet(0)
		f.I64Sub()
		f.I64Const(-9)
		f.LocalGet(1)
		f.Op(wasm.OpI64ShrS)
		f.Op(wasm.OpI64Xor)
		f.I64Const(1000)
		f.LocalGet(1)
		f.I64Const(7)
		f.Op(wasm.OpI64Or)
		f.Op(wasm.OpI64RemU)
		f.I64Add()
		f.I64Const(3)
		f.LocalGet(0)
		f.Op(wasm.OpI64LeU)
		f.Op(wasm.OpI64ExtendI32U)
		f.I64Add()
	}, func(x, y uint64) (uint64, string) {
		r := (100 - x) ^ uint64(int64(-9)>>(y&63))
		r += 1000 % (y | 7)
		if 3 <= x {
			r++
		}
		return ok(r)
	}},
}

func TestAbstractStackHazardsDifferential(t *testing.T) {
	xs := []uint64{0, 1, 2, 7, 9, 10, 11, ^uint64(0), 1<<40 + 3, 1 << 63}
	ys := []uint64{0, 1, 2, 5, ^uint64(0), 1 << 32, 8191, 8190}
	for _, hz := range hazards {
		b := wasm.NewModuleBuilder()
		b.AddMemory(1, 1)
		b.AddGlobal(wasm.I64, true, 0)
		hType := wasm.FuncType{Params: []wasm.ValType{wasm.I64}, Results: []wasm.ValType{wasm.I64}}
		h := b.NewFunc("h", hType)
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
		bin := wasm.Encode(m)

		for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
			mod, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatalf("%s (%v): %v", hz.name, tier, err)
			}
			inst, err := mod.Instantiate(Imports{})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				for _, y := range ys {
					inst.SetGlobal(0, 0)
					inst.SetFuel(1 << 16) // a miscompiled loop ends in a trap, not in a hang
					want, trap := hz.want(x, y)
					got, err := inst.Call("p", x, y)
					switch {
					case trap != "":
						// After a trap the global tells how far the function got.
						if err == nil || !strings.Contains(err.Error(), trap) || inst.Global(0) != want {
							t.Errorf("%s (%v): p(%#x, %#x) = %#x, %v, global %d; want trap %q, global %d",
								hz.name, tier, x, y, got, err, inst.Global(0), trap, want)
						}
					case err != nil || got[0] != want:
						t.Errorf("%s (%v): p(%#x, %#x) = %#x, %v; want %#x", hz.name, tier, x, y, got, err, want)
					}
				}
			}
		}
	}
}
