package liftoff

import (
	"math"
	"math/bits"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// Call executes the function with the given arguments, implementing
// rt.Callee. Locals and the operand stack live in a frame carved from the
// environment's shared arena; traps propagate as panics recovered by the
// engine at the instance boundary.
func (c *Code) Call(env *rt.Env, args, res []uint64) {
	env.Enter()
	frame := env.Frame(c.NLocals + c.MaxStack)
	copy(frame, args[:c.NParams])
	c.run(env, frame)
	copy(res, frame[c.NLocals:c.NLocals+c.NResults])
	env.PopFrame(c.NLocals + c.MaxStack)
	env.Exit()
}

func (c *Code) run(env *rt.Env, frame []uint64) {
	locals := frame
	stack := frame[c.NLocals:]
	mem := env.Mem
	var pages [][]byte
	if mem != nil {
		pages = mem.PageSlice()
	}
	ins := c.ins
	sp := 0
	pc := 0
	for {
		in := ins[pc]
		switch in.op {
		// Control. Taken backward jumps (loop back-edges) charge fuel so a
		// runaway loop in generated code stays interruptible.
		case uint16(wasm.OpUnreachable):
			rt.Trap("unreachable executed")
		case opJump:
			if env.Metered && int(in.a) <= pc {
				env.UseFuel(1)
			}
			pc = int(in.a)
			continue
		case opJumpIfZero:
			sp--
			if stack[sp] == 0 {
				if env.Metered && int(in.a) <= pc {
					env.UseFuel(1)
				}
				pc = int(in.a)
				continue
			}
		case opJumpIfNot:
			sp--
			if stack[sp] != 0 {
				if env.Metered && int(in.a) <= pc {
					env.UseFuel(1)
				}
				pc = int(in.a)
				continue
			}
		case opBrUnwind:
			h, ar := int(in.b>>8), int(in.b&0xFF)
			copy(stack[h:h+ar], stack[sp-ar:sp])
			sp = h + ar
			if env.Metered && int(in.a) <= pc {
				env.UseFuel(1)
			}
			pc = int(in.a)
			continue
		case opBrIfUnwind:
			sp--
			if stack[sp] != 0 {
				h, ar := int(in.b>>8), int(in.b&0xFF)
				copy(stack[h:h+ar], stack[sp-ar:sp])
				sp = h + ar
				if env.Metered && int(in.a) <= pc {
					env.UseFuel(1)
				}
				pc = int(in.a)
				continue
			}
		case opBrTable:
			sp--
			tbl := c.tables[in.a]
			i := int(uint32(stack[sp]))
			if i >= len(tbl)-1 {
				i = len(tbl) - 1
			}
			t := tbl[i]
			h, ar := int(t.height), int(t.arity)
			copy(stack[h:h+ar], stack[sp-ar:sp])
			sp = h + ar
			if env.Metered && int(t.pc) <= pc {
				env.UseFuel(1)
			}
			pc = int(t.pc)
			continue
		case opRet:
			// Move results to the bottom of the operand area for Call.
			copy(stack[:c.NResults], stack[sp-c.NResults:sp])
			return
		case uint16(wasm.OpCall):
			np, nr := int(in.b>>8), int(in.b&0xFF)
			callee := env.Funcs[in.a]
			callee.Call(env, stack[sp-np:sp], stack[sp-np:sp-np+nr])
			sp += nr - np
			if mem != nil {
				pages = mem.PageSlice()
			}
		case uint16(wasm.OpCallIndirect):
			sp--
			ti := uint32(stack[sp])
			np, nr := int(in.b>>8), int(in.b&0xFF)
			if ti >= uint32(len(env.Table)) {
				rt.Trap("undefined element in call_indirect")
			}
			fi := env.Table[ti]
			if fi == ^uint32(0) {
				rt.Trap("uninitialized element in call_indirect")
			}
			if !env.Types[env.FuncTypes[fi]].Equal(env.Types[in.a]) {
				rt.Trap("indirect call type mismatch")
			}
			callee := env.Funcs[fi]
			callee.Call(env, stack[sp-np:sp], stack[sp-np:sp-np+nr])
			sp += nr - np
			if mem != nil {
				pages = mem.PageSlice()
			}

		// Parametric.
		case uint16(wasm.OpDrop):
			sp--
		case uint16(wasm.OpSelect):
			sp -= 2
			if stack[sp+1] == 0 {
				stack[sp-1] = stack[sp]
			}

		// Variables.
		case uint16(wasm.OpLocalGet):
			stack[sp] = locals[in.a]
			sp++
		case uint16(wasm.OpLocalSet):
			sp--
			locals[in.a] = stack[sp]
		case uint16(wasm.OpLocalTee):
			locals[in.a] = stack[sp-1]
		case uint16(wasm.OpGlobalGet):
			stack[sp] = env.Globals[in.a]
			sp++
		case uint16(wasm.OpGlobalSet):
			sp--
			env.Globals[in.a] = stack[sp]

		// Memory.
		case uint16(wasm.OpI32Load):
			stack[sp-1] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 4)))
		case uint16(wasm.OpI64Load):
			stack[sp-1] = rt.LdU64(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 8))
		case uint16(wasm.OpF32Load):
			stack[sp-1] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 4)))
		case uint16(wasm.OpF64Load):
			stack[sp-1] = rt.LdU64(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 8))
		case uint16(wasm.OpI32Load8S):
			stack[sp-1] = uint64(uint32(int32(int8(rt.LdU8(mem, rt.CheckAddr(stack[sp-1], in.a, 1))))))
		case uint16(wasm.OpI32Load8U):
			stack[sp-1] = uint64(rt.LdU8(mem, rt.CheckAddr(stack[sp-1], in.a, 1)))
		case uint16(wasm.OpI32Load16S):
			stack[sp-1] = uint64(uint32(int32(int16(rt.LdU16(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 2))))))
		case uint16(wasm.OpI32Load16U):
			stack[sp-1] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 2)))
		case uint16(wasm.OpI64Load8S):
			stack[sp-1] = uint64(int64(int8(rt.LdU8(mem, rt.CheckAddr(stack[sp-1], in.a, 1)))))
		case uint16(wasm.OpI64Load8U):
			stack[sp-1] = uint64(rt.LdU8(mem, rt.CheckAddr(stack[sp-1], in.a, 1)))
		case uint16(wasm.OpI64Load16S):
			stack[sp-1] = uint64(int64(int16(rt.LdU16(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 2)))))
		case uint16(wasm.OpI64Load16U):
			stack[sp-1] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 2)))
		case uint16(wasm.OpI64Load32S):
			stack[sp-1] = uint64(int64(int32(rt.LdU32(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 4)))))
		case uint16(wasm.OpI64Load32U):
			stack[sp-1] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(stack[sp-1], in.a, 4)))
		case uint16(wasm.OpI32Store), uint16(wasm.OpF32Store):
			sp -= 2
			rt.StU32(pages, mem, rt.CheckAddr(stack[sp], in.a, 4), uint32(stack[sp+1]))
		case uint16(wasm.OpI64Store), uint16(wasm.OpF64Store):
			sp -= 2
			rt.StU64(pages, mem, rt.CheckAddr(stack[sp], in.a, 8), stack[sp+1])
		case uint16(wasm.OpI32Store8), uint16(wasm.OpI64Store8):
			sp -= 2
			rt.StU8(mem, rt.CheckAddr(stack[sp], in.a, 1), byte(stack[sp+1]))
		case uint16(wasm.OpI32Store16), uint16(wasm.OpI64Store16):
			sp -= 2
			rt.StU16(pages, mem, rt.CheckAddr(stack[sp], in.a, 2), uint16(stack[sp+1]))
		case uint16(wasm.OpI64Store32):
			sp -= 2
			rt.StU32(pages, mem, rt.CheckAddr(stack[sp], in.a, 4), uint32(stack[sp+1]))
		case uint16(wasm.OpMemorySize):
			stack[sp] = uint64(mem.Pages())
			sp++
		case uint16(wasm.OpMemoryGrow):
			stack[sp-1] = uint64(uint32(mem.Grow(uint32(stack[sp-1]))))
			pages = mem.PageSlice()

		// Constants.
		case uint16(wasm.OpI32Const), uint16(wasm.OpI64Const),
			uint16(wasm.OpF32Const), uint16(wasm.OpF64Const):
			stack[sp] = in.a
			sp++

		// i32 comparisons.
		case uint16(wasm.OpI32Eqz):
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) == 0)
		case uint16(wasm.OpI32Eq):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) == uint32(stack[sp]))
		case uint16(wasm.OpI32Ne):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) != uint32(stack[sp]))
		case uint16(wasm.OpI32LtS):
			sp--
			stack[sp-1] = rt.B2i(int32(uint32(stack[sp-1])) < int32(uint32(stack[sp])))
		case uint16(wasm.OpI32LtU):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) < uint32(stack[sp]))
		case uint16(wasm.OpI32GtS):
			sp--
			stack[sp-1] = rt.B2i(int32(uint32(stack[sp-1])) > int32(uint32(stack[sp])))
		case uint16(wasm.OpI32GtU):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) > uint32(stack[sp]))
		case uint16(wasm.OpI32LeS):
			sp--
			stack[sp-1] = rt.B2i(int32(uint32(stack[sp-1])) <= int32(uint32(stack[sp])))
		case uint16(wasm.OpI32LeU):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) <= uint32(stack[sp]))
		case uint16(wasm.OpI32GeS):
			sp--
			stack[sp-1] = rt.B2i(int32(uint32(stack[sp-1])) >= int32(uint32(stack[sp])))
		case uint16(wasm.OpI32GeU):
			sp--
			stack[sp-1] = rt.B2i(uint32(stack[sp-1]) >= uint32(stack[sp]))

		// i64 comparisons.
		case uint16(wasm.OpI64Eqz):
			stack[sp-1] = rt.B2i(stack[sp-1] == 0)
		case uint16(wasm.OpI64Eq):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] == stack[sp])
		case uint16(wasm.OpI64Ne):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] != stack[sp])
		case uint16(wasm.OpI64LtS):
			sp--
			stack[sp-1] = rt.B2i(int64(stack[sp-1]) < int64(stack[sp]))
		case uint16(wasm.OpI64LtU):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] < stack[sp])
		case uint16(wasm.OpI64GtS):
			sp--
			stack[sp-1] = rt.B2i(int64(stack[sp-1]) > int64(stack[sp]))
		case uint16(wasm.OpI64GtU):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] > stack[sp])
		case uint16(wasm.OpI64LeS):
			sp--
			stack[sp-1] = rt.B2i(int64(stack[sp-1]) <= int64(stack[sp]))
		case uint16(wasm.OpI64LeU):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] <= stack[sp])
		case uint16(wasm.OpI64GeS):
			sp--
			stack[sp-1] = rt.B2i(int64(stack[sp-1]) >= int64(stack[sp]))
		case uint16(wasm.OpI64GeU):
			sp--
			stack[sp-1] = rt.B2i(stack[sp-1] >= stack[sp])

		// f32 comparisons.
		case uint16(wasm.OpF32Eq):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) == rt.F32(stack[sp]))
		case uint16(wasm.OpF32Ne):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) != rt.F32(stack[sp]))
		case uint16(wasm.OpF32Lt):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) < rt.F32(stack[sp]))
		case uint16(wasm.OpF32Gt):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) > rt.F32(stack[sp]))
		case uint16(wasm.OpF32Le):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) <= rt.F32(stack[sp]))
		case uint16(wasm.OpF32Ge):
			sp--
			stack[sp-1] = rt.B2i(rt.F32(stack[sp-1]) >= rt.F32(stack[sp]))

		// f64 comparisons.
		case uint16(wasm.OpF64Eq):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) == rt.F64(stack[sp]))
		case uint16(wasm.OpF64Ne):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) != rt.F64(stack[sp]))
		case uint16(wasm.OpF64Lt):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) < rt.F64(stack[sp]))
		case uint16(wasm.OpF64Gt):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) > rt.F64(stack[sp]))
		case uint16(wasm.OpF64Le):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) <= rt.F64(stack[sp]))
		case uint16(wasm.OpF64Ge):
			sp--
			stack[sp-1] = rt.B2i(rt.F64(stack[sp-1]) >= rt.F64(stack[sp]))

		// i32 numerics.
		case uint16(wasm.OpI32Clz):
			stack[sp-1] = uint64(bits.LeadingZeros32(uint32(stack[sp-1])))
		case uint16(wasm.OpI32Ctz):
			stack[sp-1] = uint64(bits.TrailingZeros32(uint32(stack[sp-1])))
		case uint16(wasm.OpI32Popcnt):
			stack[sp-1] = uint64(bits.OnesCount32(uint32(stack[sp-1])))
		case uint16(wasm.OpI32Add):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) + uint32(stack[sp]))
		case uint16(wasm.OpI32Sub):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) - uint32(stack[sp]))
		case uint16(wasm.OpI32Mul):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) * uint32(stack[sp]))
		case uint16(wasm.OpI32DivS):
			sp--
			stack[sp-1] = rt.I32DivS(stack[sp-1], stack[sp])
		case uint16(wasm.OpI32DivU):
			sp--
			stack[sp-1] = rt.I32DivU(stack[sp-1], stack[sp])
		case uint16(wasm.OpI32RemS):
			sp--
			stack[sp-1] = rt.I32RemS(stack[sp-1], stack[sp])
		case uint16(wasm.OpI32RemU):
			sp--
			stack[sp-1] = rt.I32RemU(stack[sp-1], stack[sp])
		case uint16(wasm.OpI32And):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) & uint32(stack[sp]))
		case uint16(wasm.OpI32Or):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) | uint32(stack[sp]))
		case uint16(wasm.OpI32Xor):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) ^ uint32(stack[sp]))
		case uint16(wasm.OpI32Shl):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) << (stack[sp] & 31))
		case uint16(wasm.OpI32ShrS):
			sp--
			stack[sp-1] = uint64(uint32(int32(uint32(stack[sp-1])) >> (stack[sp] & 31)))
		case uint16(wasm.OpI32ShrU):
			sp--
			stack[sp-1] = uint64(uint32(stack[sp-1]) >> (stack[sp] & 31))
		case uint16(wasm.OpI32Rotl):
			sp--
			stack[sp-1] = rt.Rotl32(stack[sp-1], stack[sp])
		case uint16(wasm.OpI32Rotr):
			sp--
			stack[sp-1] = rt.Rotr32(stack[sp-1], stack[sp])

		// i64 numerics.
		case uint16(wasm.OpI64Clz):
			stack[sp-1] = uint64(bits.LeadingZeros64(stack[sp-1]))
		case uint16(wasm.OpI64Ctz):
			stack[sp-1] = uint64(bits.TrailingZeros64(stack[sp-1]))
		case uint16(wasm.OpI64Popcnt):
			stack[sp-1] = uint64(bits.OnesCount64(stack[sp-1]))
		case uint16(wasm.OpI64Add):
			sp--
			stack[sp-1] += stack[sp]
		case uint16(wasm.OpI64Sub):
			sp--
			stack[sp-1] -= stack[sp]
		case uint16(wasm.OpI64Mul):
			sp--
			stack[sp-1] *= stack[sp]
		case uint16(wasm.OpI64DivS):
			sp--
			stack[sp-1] = rt.I64DivS(stack[sp-1], stack[sp])
		case uint16(wasm.OpI64DivU):
			sp--
			stack[sp-1] = rt.I64DivU(stack[sp-1], stack[sp])
		case uint16(wasm.OpI64RemS):
			sp--
			stack[sp-1] = rt.I64RemS(stack[sp-1], stack[sp])
		case uint16(wasm.OpI64RemU):
			sp--
			stack[sp-1] = rt.I64RemU(stack[sp-1], stack[sp])
		case uint16(wasm.OpI64And):
			sp--
			stack[sp-1] &= stack[sp]
		case uint16(wasm.OpI64Or):
			sp--
			stack[sp-1] |= stack[sp]
		case uint16(wasm.OpI64Xor):
			sp--
			stack[sp-1] ^= stack[sp]
		case uint16(wasm.OpI64Shl):
			sp--
			stack[sp-1] <<= stack[sp] & 63
		case uint16(wasm.OpI64ShrS):
			sp--
			stack[sp-1] = uint64(int64(stack[sp-1]) >> (stack[sp] & 63))
		case uint16(wasm.OpI64ShrU):
			sp--
			stack[sp-1] >>= stack[sp] & 63
		case uint16(wasm.OpI64Rotl):
			sp--
			stack[sp-1] = rt.Rotl64(stack[sp-1], stack[sp])
		case uint16(wasm.OpI64Rotr):
			sp--
			stack[sp-1] = rt.Rotr64(stack[sp-1], stack[sp])

		// f32 numerics.
		case uint16(wasm.OpF32Abs):
			stack[sp-1] = uint64(uint32(stack[sp-1]) &^ 0x80000000)
		case uint16(wasm.OpF32Neg):
			stack[sp-1] = uint64(uint32(stack[sp-1]) ^ 0x80000000)
		case uint16(wasm.OpF32Ceil):
			stack[sp-1] = rt.F32Bits(float32(math.Ceil(float64(rt.F32(stack[sp-1])))))
		case uint16(wasm.OpF32Floor):
			stack[sp-1] = rt.F32Bits(float32(math.Floor(float64(rt.F32(stack[sp-1])))))
		case uint16(wasm.OpF32Trunc):
			stack[sp-1] = rt.F32Bits(float32(math.Trunc(float64(rt.F32(stack[sp-1])))))
		case uint16(wasm.OpF32Nearest):
			stack[sp-1] = rt.F32Bits(float32(math.RoundToEven(float64(rt.F32(stack[sp-1])))))
		case uint16(wasm.OpF32Sqrt):
			stack[sp-1] = rt.F32Bits(float32(math.Sqrt(float64(rt.F32(stack[sp-1])))))
		case uint16(wasm.OpF32Add):
			sp--
			stack[sp-1] = rt.F32Bits(rt.F32(stack[sp-1]) + rt.F32(stack[sp]))
		case uint16(wasm.OpF32Sub):
			sp--
			stack[sp-1] = rt.F32Bits(rt.F32(stack[sp-1]) - rt.F32(stack[sp]))
		case uint16(wasm.OpF32Mul):
			sp--
			stack[sp-1] = rt.F32Bits(rt.F32(stack[sp-1]) * rt.F32(stack[sp]))
		case uint16(wasm.OpF32Div):
			sp--
			stack[sp-1] = rt.F32Bits(rt.F32(stack[sp-1]) / rt.F32(stack[sp]))
		case uint16(wasm.OpF32Min):
			sp--
			stack[sp-1] = rt.F32Bits(rt.FMin32(rt.F32(stack[sp-1]), rt.F32(stack[sp])))
		case uint16(wasm.OpF32Max):
			sp--
			stack[sp-1] = rt.F32Bits(rt.FMax32(rt.F32(stack[sp-1]), rt.F32(stack[sp])))
		case uint16(wasm.OpF32Copysign):
			sp--
			stack[sp-1] = rt.F32Bits(float32(math.Copysign(float64(rt.F32(stack[sp-1])), float64(rt.F32(stack[sp])))))

		// f64 numerics.
		case uint16(wasm.OpF64Abs):
			stack[sp-1] &= 0x7FFFFFFFFFFFFFFF
		case uint16(wasm.OpF64Neg):
			stack[sp-1] ^= 0x8000000000000000
		case uint16(wasm.OpF64Ceil):
			stack[sp-1] = rt.F64Bits(math.Ceil(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64Floor):
			stack[sp-1] = rt.F64Bits(math.Floor(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64Trunc):
			stack[sp-1] = rt.F64Bits(math.Trunc(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64Nearest):
			stack[sp-1] = rt.F64Bits(math.RoundToEven(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64Sqrt):
			stack[sp-1] = rt.F64Bits(math.Sqrt(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64Add):
			sp--
			stack[sp-1] = rt.F64Bits(rt.F64(stack[sp-1]) + rt.F64(stack[sp]))
		case uint16(wasm.OpF64Sub):
			sp--
			stack[sp-1] = rt.F64Bits(rt.F64(stack[sp-1]) - rt.F64(stack[sp]))
		case uint16(wasm.OpF64Mul):
			sp--
			stack[sp-1] = rt.F64Bits(rt.F64(stack[sp-1]) * rt.F64(stack[sp]))
		case uint16(wasm.OpF64Div):
			sp--
			stack[sp-1] = rt.F64Bits(rt.F64(stack[sp-1]) / rt.F64(stack[sp]))
		case uint16(wasm.OpF64Min):
			sp--
			stack[sp-1] = rt.F64Bits(rt.FMin64(rt.F64(stack[sp-1]), rt.F64(stack[sp])))
		case uint16(wasm.OpF64Max):
			sp--
			stack[sp-1] = rt.F64Bits(rt.FMax64(rt.F64(stack[sp-1]), rt.F64(stack[sp])))
		case uint16(wasm.OpF64Copysign):
			sp--
			stack[sp-1] = rt.F64Bits(math.Copysign(rt.F64(stack[sp-1]), rt.F64(stack[sp])))

		// Conversions.
		case uint16(wasm.OpI32WrapI64):
			stack[sp-1] = uint64(uint32(stack[sp-1]))
		case uint16(wasm.OpI32TruncF32S):
			stack[sp-1] = rt.TruncF32ToI32S(stack[sp-1])
		case uint16(wasm.OpI32TruncF32U):
			stack[sp-1] = rt.TruncF32ToI32U(stack[sp-1])
		case uint16(wasm.OpI32TruncF64S):
			stack[sp-1] = rt.TruncF64ToI32S(stack[sp-1])
		case uint16(wasm.OpI32TruncF64U):
			stack[sp-1] = rt.TruncF64ToI32U(stack[sp-1])
		case uint16(wasm.OpI64ExtendI32S):
			stack[sp-1] = uint64(int64(int32(uint32(stack[sp-1]))))
		case uint16(wasm.OpI64ExtendI32U):
			stack[sp-1] = uint64(uint32(stack[sp-1]))
		case uint16(wasm.OpI64TruncF32S):
			stack[sp-1] = rt.TruncF32ToI64S(stack[sp-1])
		case uint16(wasm.OpI64TruncF32U):
			stack[sp-1] = rt.TruncF32ToI64U(stack[sp-1])
		case uint16(wasm.OpI64TruncF64S):
			stack[sp-1] = rt.TruncF64ToI64S(stack[sp-1])
		case uint16(wasm.OpI64TruncF64U):
			stack[sp-1] = rt.TruncF64ToI64U(stack[sp-1])
		case uint16(wasm.OpF32ConvertI32S):
			stack[sp-1] = rt.F32Bits(float32(int32(uint32(stack[sp-1]))))
		case uint16(wasm.OpF32ConvertI32U):
			stack[sp-1] = rt.F32Bits(float32(uint32(stack[sp-1])))
		case uint16(wasm.OpF32ConvertI64S):
			stack[sp-1] = rt.F32Bits(float32(int64(stack[sp-1])))
		case uint16(wasm.OpF32ConvertI64U):
			stack[sp-1] = rt.F32Bits(float32(stack[sp-1]))
		case uint16(wasm.OpF32DemoteF64):
			stack[sp-1] = rt.F32Bits(float32(rt.F64(stack[sp-1])))
		case uint16(wasm.OpF64ConvertI32S):
			stack[sp-1] = rt.F64Bits(float64(int32(uint32(stack[sp-1]))))
		case uint16(wasm.OpF64ConvertI32U):
			stack[sp-1] = rt.F64Bits(float64(uint32(stack[sp-1])))
		case uint16(wasm.OpF64ConvertI64S):
			stack[sp-1] = rt.F64Bits(float64(int64(stack[sp-1])))
		case uint16(wasm.OpF64ConvertI64U):
			stack[sp-1] = rt.F64Bits(float64(stack[sp-1]))
		case uint16(wasm.OpF64PromoteF32):
			stack[sp-1] = rt.F64Bits(float64(rt.F32(stack[sp-1])))
		case uint16(wasm.OpI32ReinterpretF32), uint16(wasm.OpI64ReinterpretF64),
			uint16(wasm.OpF32ReinterpretI32), uint16(wasm.OpF64ReinterpretI64):
			// Bit patterns are already raw.
		case uint16(wasm.OpI32Extend8S):
			stack[sp-1] = uint64(uint32(int32(int8(uint8(stack[sp-1])))))
		case uint16(wasm.OpI32Extend16S):
			stack[sp-1] = uint64(uint32(int32(int16(uint16(stack[sp-1])))))
		case uint16(wasm.OpI64Extend8S):
			stack[sp-1] = uint64(int64(int8(uint8(stack[sp-1]))))
		case uint16(wasm.OpI64Extend16S):
			stack[sp-1] = uint64(int64(int16(uint16(stack[sp-1]))))
		case uint16(wasm.OpI64Extend32S):
			stack[sp-1] = uint64(int64(int32(uint32(stack[sp-1]))))

		default:
			rt.Trap("liftoff: unknown opcode %#x", in.op)
		}
		pc++
	}
}
