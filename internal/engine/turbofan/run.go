package turbofan

import (
	"math"
	"math/bits"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// Call executes the compiled function, implementing rt.Callee. All registers
// (locals followed by stack slots) live in a frame carved from the shared
// arena. This and run below are the engine's only execution path: fuel,
// traps, interrupts and memory access exist once, for both compilers' code.
func (c *Code) Call(env *rt.Env, args, res []uint64) {
	env.Enter()
	frame := env.Frame(c.NLocals + c.MaxStack)
	copy(frame, args[:c.NParams])
	c.run(env, frame)
	copy(res, frame[c.NLocals:c.NLocals+c.NResults])
	env.PopFrame(c.NLocals + c.MaxStack)
	env.Exit()
}

// run is the dispatch loop. Every op of the ops table is a case of one
// switch over a dense opcode space, which the Go compiler turns into a jump
// table (it does so only while the case values span less than four times
// their count — TestOpcodeSpaceDense). The instruction is read through a
// pointer: a copy of the 24-byte tin would be spilled to the stack on every
// dispatch. Taken branches share one tail that charges fuel on backward
// targets, so runaway loops stay interruptible while unmetered runs pay only
// the bool test. Memory ops share one access tail per width and extension in
// the same way; their fast path is written out here because Go inlines almost
// nothing into a function this big, so a helper would be a call per access.
func (c *Code) run(env *rt.Env, regs []uint64) {
	mem := env.Mem
	var pages [][]byte
	if mem != nil {
		pages = mem.PageSlice()
	}
	ins := c.ins
	pc := 0
	var ea, v uint64 // a memory op's effective address; add@mem's addend
	for {
		t := &ins[pc]
		retire(t.op)
		switch t.op {
		case tMove:
			regs[t.d] = regs[t.a]
		case uint16(wasm.OpI32Const), uint16(wasm.OpI64Const),
			uint16(wasm.OpF32Const), uint16(wasm.OpF64Const):
			regs[t.d] = t.imm
		case tJump:
			goto taken
		case tJumpIfZero:
			if regs[t.a] == 0 {
				goto taken
			}
		case tJumpIfNot:
			if regs[t.a] != 0 {
				goto taken
			}
		case tRet:
			return
		case tUnreachable:
			rt.Trap("unreachable executed")
		case tFuel:
			if env.Metered {
				env.UseFuel(1)
			}
		case tBrTable:
			tbl := c.tables[t.imm]
			i := int(uint32(regs[t.a]))
			if i >= len(tbl)-1 {
				i = len(tbl) - 1
			}
			if env.Metered && int(tbl[i]) <= pc {
				env.UseFuel(1)
			}
			pc = int(tbl[i])
			continue
		case tCall:
			np, nr := int(t.b>>16), int(t.b&0xFFFF)
			env.Funcs[t.imm].Call(env, regs[t.a:t.a+int32(np)], regs[t.a:t.a+int32(nr)])
			if mem != nil {
				pages = mem.PageSlice()
			}
		case tCallIndirect:
			np, nr := int(t.b>>16), int(t.b&0xFFFF)
			ti := uint32(regs[t.a+int32(np)])
			if ti >= uint32(len(env.Table)) {
				rt.Trap("undefined element in call_indirect")
			}
			fi := env.Table[ti]
			if fi == ^uint32(0) {
				rt.Trap("uninitialized element in call_indirect")
			}
			if !env.Types[env.FuncTypes[fi]].Equal(env.Types[t.imm]) {
				rt.Trap("indirect call type mismatch")
			}
			env.Funcs[fi].Call(env, regs[t.a:t.a+int32(np)], regs[t.a:t.a+int32(nr)])
			if mem != nil {
				pages = mem.PageSlice()
			}
		case tSelect:
			if regs[t.imm] != 0 {
				regs[t.d] = regs[t.a]
			} else {
				regs[t.d] = regs[t.b]
			}
		case tSelectImm:
			if regs[t.imm] != 0 {
				regs[t.d] = regs[t.a]
			} else {
				regs[t.d] = uint64(uint32(t.b))
			}
		case tGlobalGet:
			regs[t.d] = env.Globals[t.imm]
		case tGlobalSet:
			env.Globals[t.imm] = regs[t.a]
		case uint16(wasm.OpMemorySize):
			regs[t.d] = uint64(mem.Pages())
		case uint16(wasm.OpMemoryGrow):
			regs[t.d] = uint64(uint32(mem.Grow(uint32(regs[t.a]))))
			pages = mem.PageSlice()

		// Memory. Each case computes the effective address — the 32-bit base
		// plus the offset, up to 2³³, without wrapping — and jumps to the
		// access tail of its width and extension below the switch.
		case uint16(wasm.OpI32Load), uint16(wasm.OpF32Load), uint16(wasm.OpI64Load32U):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld32u
		case uint16(wasm.OpI64Load), uint16(wasm.OpF64Load):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld64
		case uint16(wasm.OpI32Load8S):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld8s32
		case uint16(wasm.OpI32Load8U), uint16(wasm.OpI64Load8U):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld8u
		case uint16(wasm.OpI32Load16S):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld16s32
		case uint16(wasm.OpI32Load16U), uint16(wasm.OpI64Load16U):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld16u
		case uint16(wasm.OpI64Load8S):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld8s64
		case uint16(wasm.OpI64Load16S):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld16s64
		case uint16(wasm.OpI64Load32S):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto ld32s64
		case uint16(wasm.OpI32Store), uint16(wasm.OpF32Store), uint16(wasm.OpI64Store32):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto st32
		case uint16(wasm.OpI64Store), uint16(wasm.OpF64Store):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto st64
		case uint16(wasm.OpI32Store8), uint16(wasm.OpI64Store8):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto st8
		case uint16(wasm.OpI32Store16), uint16(wasm.OpI64Store16):
			ea = uint64(uint32(regs[t.a])) + t.imm
			goto st16

		// i32 comparisons.
		case uint16(wasm.OpI32Eqz):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == 0)
		case uint16(wasm.OpI32Eq):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == uint32(regs[t.b]))
		case uint16(wasm.OpI32Ne):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) != uint32(regs[t.b]))
		case uint16(wasm.OpI32LtS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) < int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32LtU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) < uint32(regs[t.b]))
		case uint16(wasm.OpI32GtS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) > int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32GtU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) > uint32(regs[t.b]))
		case uint16(wasm.OpI32LeS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) <= int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32LeU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) <= uint32(regs[t.b]))
		case uint16(wasm.OpI32GeS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) >= int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32GeU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) >= uint32(regs[t.b]))

		// i64 comparisons.
		case uint16(wasm.OpI64Eqz):
			regs[t.d] = rt.B2i(regs[t.a] == 0)
		case uint16(wasm.OpI64Eq):
			regs[t.d] = rt.B2i(regs[t.a] == regs[t.b])
		case uint16(wasm.OpI64Ne):
			regs[t.d] = rt.B2i(regs[t.a] != regs[t.b])
		case uint16(wasm.OpI64LtS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) < int64(regs[t.b]))
		case uint16(wasm.OpI64LtU):
			regs[t.d] = rt.B2i(regs[t.a] < regs[t.b])
		case uint16(wasm.OpI64GtS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) > int64(regs[t.b]))
		case uint16(wasm.OpI64GtU):
			regs[t.d] = rt.B2i(regs[t.a] > regs[t.b])
		case uint16(wasm.OpI64LeS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) <= int64(regs[t.b]))
		case uint16(wasm.OpI64LeU):
			regs[t.d] = rt.B2i(regs[t.a] <= regs[t.b])
		case uint16(wasm.OpI64GeS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) >= int64(regs[t.b]))
		case uint16(wasm.OpI64GeU):
			regs[t.d] = rt.B2i(regs[t.a] >= regs[t.b])

		// Float comparisons.
		case uint16(wasm.OpF32Eq):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) == rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Ne):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) != rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Lt):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) < rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Gt):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) > rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Le):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) <= rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Ge):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) >= rt.F32(regs[t.b]))
		case uint16(wasm.OpF64Eq):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) == rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Ne):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) != rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Lt):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) < rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Gt):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) > rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Le):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) <= rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Ge):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) >= rt.F64(regs[t.b]))

		// i32 numerics.
		case uint16(wasm.OpI32Add):
			regs[t.d] = uint64(uint32(regs[t.a]) + uint32(regs[t.b]))
		case uint16(wasm.OpI32Sub):
			regs[t.d] = uint64(uint32(regs[t.a]) - uint32(regs[t.b]))
		case uint16(wasm.OpI32Mul):
			regs[t.d] = uint64(uint32(regs[t.a]) * uint32(regs[t.b]))
		case uint16(wasm.OpI32DivS):
			regs[t.d] = rt.I32DivS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32DivU):
			regs[t.d] = rt.I32DivU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32RemS):
			regs[t.d] = rt.I32RemS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32RemU):
			regs[t.d] = rt.I32RemU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32And):
			regs[t.d] = uint64(uint32(regs[t.a]) & uint32(regs[t.b]))
		case uint16(wasm.OpI32Or):
			regs[t.d] = uint64(uint32(regs[t.a]) | uint32(regs[t.b]))
		case uint16(wasm.OpI32Xor):
			regs[t.d] = uint64(uint32(regs[t.a]) ^ uint32(regs[t.b]))
		case uint16(wasm.OpI32Shl):
			regs[t.d] = uint64(uint32(regs[t.a]) << (regs[t.b] & 31))
		case uint16(wasm.OpI32ShrS):
			regs[t.d] = uint64(uint32(int32(uint32(regs[t.a])) >> (regs[t.b] & 31)))
		case uint16(wasm.OpI32ShrU):
			regs[t.d] = uint64(uint32(regs[t.a]) >> (regs[t.b] & 31))
		case uint16(wasm.OpI32Rotl):
			regs[t.d] = rt.Rotl32(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32Rotr):
			regs[t.d] = rt.Rotr32(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32Clz):
			regs[t.d] = uint64(bits.LeadingZeros32(uint32(regs[t.a])))
		case uint16(wasm.OpI32Ctz):
			regs[t.d] = uint64(bits.TrailingZeros32(uint32(regs[t.a])))
		case uint16(wasm.OpI32Popcnt):
			regs[t.d] = uint64(bits.OnesCount32(uint32(regs[t.a])))

		// i64 numerics.
		case uint16(wasm.OpI64Add):
			regs[t.d] = regs[t.a] + regs[t.b]
		case uint16(wasm.OpI64Sub):
			regs[t.d] = regs[t.a] - regs[t.b]
		case uint16(wasm.OpI64Mul):
			regs[t.d] = regs[t.a] * regs[t.b]
		case uint16(wasm.OpI64DivS):
			regs[t.d] = rt.I64DivS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64DivU):
			regs[t.d] = rt.I64DivU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64RemS):
			regs[t.d] = rt.I64RemS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64RemU):
			regs[t.d] = rt.I64RemU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64And):
			regs[t.d] = regs[t.a] & regs[t.b]
		case uint16(wasm.OpI64Or):
			regs[t.d] = regs[t.a] | regs[t.b]
		case uint16(wasm.OpI64Xor):
			regs[t.d] = regs[t.a] ^ regs[t.b]
		case uint16(wasm.OpI64Shl):
			regs[t.d] = regs[t.a] << (regs[t.b] & 63)
		case uint16(wasm.OpI64ShrS):
			regs[t.d] = uint64(int64(regs[t.a]) >> (regs[t.b] & 63))
		case uint16(wasm.OpI64ShrU):
			regs[t.d] = regs[t.a] >> (regs[t.b] & 63)
		case uint16(wasm.OpI64Rotl):
			regs[t.d] = rt.Rotl64(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64Rotr):
			regs[t.d] = rt.Rotr64(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64Clz):
			regs[t.d] = uint64(bits.LeadingZeros64(regs[t.a]))
		case uint16(wasm.OpI64Ctz):
			regs[t.d] = uint64(bits.TrailingZeros64(regs[t.a]))
		case uint16(wasm.OpI64Popcnt):
			regs[t.d] = uint64(bits.OnesCount64(regs[t.a]))

		// f32 numerics.
		case uint16(wasm.OpF32Abs):
			regs[t.d] = uint64(uint32(regs[t.a]) &^ 0x80000000)
		case uint16(wasm.OpF32Neg):
			regs[t.d] = uint64(uint32(regs[t.a]) ^ 0x80000000)
		case uint16(wasm.OpF32Ceil):
			regs[t.d] = rt.F32Bits(float32(math.Ceil(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Floor):
			regs[t.d] = rt.F32Bits(float32(math.Floor(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Trunc):
			regs[t.d] = rt.F32Bits(float32(math.Trunc(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Nearest):
			regs[t.d] = rt.F32Bits(float32(math.RoundToEven(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Sqrt):
			regs[t.d] = rt.F32Bits(float32(math.Sqrt(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Add):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) + rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Sub):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) - rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Mul):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) * rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Div):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) / rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Min):
			regs[t.d] = rt.F32Bits(rt.FMin32(rt.F32(regs[t.a]), rt.F32(regs[t.b])))
		case uint16(wasm.OpF32Max):
			regs[t.d] = rt.F32Bits(rt.FMax32(rt.F32(regs[t.a]), rt.F32(regs[t.b])))
		case uint16(wasm.OpF32Copysign):
			regs[t.d] = rt.F32Bits(float32(math.Copysign(float64(rt.F32(regs[t.a])), float64(rt.F32(regs[t.b])))))

		// f64 numerics.
		case uint16(wasm.OpF64Abs):
			regs[t.d] = regs[t.a] &^ 0x8000000000000000
		case uint16(wasm.OpF64Neg):
			regs[t.d] = regs[t.a] ^ 0x8000000000000000
		case uint16(wasm.OpF64Ceil):
			regs[t.d] = rt.F64Bits(math.Ceil(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Floor):
			regs[t.d] = rt.F64Bits(math.Floor(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Trunc):
			regs[t.d] = rt.F64Bits(math.Trunc(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Nearest):
			regs[t.d] = rt.F64Bits(math.RoundToEven(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Sqrt):
			regs[t.d] = rt.F64Bits(math.Sqrt(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Add):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) + rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Sub):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) - rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Mul):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) * rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Div):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) / rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Min):
			regs[t.d] = rt.F64Bits(rt.FMin64(rt.F64(regs[t.a]), rt.F64(regs[t.b])))
		case uint16(wasm.OpF64Max):
			regs[t.d] = rt.F64Bits(rt.FMax64(rt.F64(regs[t.a]), rt.F64(regs[t.b])))
		case uint16(wasm.OpF64Copysign):
			regs[t.d] = rt.F64Bits(math.Copysign(rt.F64(regs[t.a]), rt.F64(regs[t.b])))

		// Conversions.
		case uint16(wasm.OpI32WrapI64):
			regs[t.d] = uint64(uint32(regs[t.a]))
		case uint16(wasm.OpI32TruncF32S):
			regs[t.d] = rt.TruncF32ToI32S(regs[t.a])
		case uint16(wasm.OpI32TruncF32U):
			regs[t.d] = rt.TruncF32ToI32U(regs[t.a])
		case uint16(wasm.OpI32TruncF64S):
			regs[t.d] = rt.TruncF64ToI32S(regs[t.a])
		case uint16(wasm.OpI32TruncF64U):
			regs[t.d] = rt.TruncF64ToI32U(regs[t.a])
		case uint16(wasm.OpI64ExtendI32S):
			regs[t.d] = uint64(int64(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpI64ExtendI32U):
			regs[t.d] = uint64(uint32(regs[t.a]))
		case uint16(wasm.OpI64TruncF32S):
			regs[t.d] = rt.TruncF32ToI64S(regs[t.a])
		case uint16(wasm.OpI64TruncF32U):
			regs[t.d] = rt.TruncF32ToI64U(regs[t.a])
		case uint16(wasm.OpI64TruncF64S):
			regs[t.d] = rt.TruncF64ToI64S(regs[t.a])
		case uint16(wasm.OpI64TruncF64U):
			regs[t.d] = rt.TruncF64ToI64U(regs[t.a])
		case uint16(wasm.OpF32ConvertI32S):
			regs[t.d] = rt.F32Bits(float32(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpF32ConvertI32U):
			regs[t.d] = rt.F32Bits(float32(uint32(regs[t.a])))
		case uint16(wasm.OpF32ConvertI64S):
			regs[t.d] = rt.F32Bits(float32(int64(regs[t.a])))
		case uint16(wasm.OpF32ConvertI64U):
			regs[t.d] = rt.F32Bits(float32(regs[t.a]))
		case uint16(wasm.OpF32DemoteF64):
			regs[t.d] = rt.F32Bits(float32(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64ConvertI32S):
			regs[t.d] = rt.F64Bits(float64(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpF64ConvertI32U):
			regs[t.d] = rt.F64Bits(float64(uint32(regs[t.a])))
		case uint16(wasm.OpF64ConvertI64S):
			regs[t.d] = rt.F64Bits(float64(int64(regs[t.a])))
		case uint16(wasm.OpF64ConvertI64U):
			regs[t.d] = rt.F64Bits(float64(regs[t.a]))
		case uint16(wasm.OpF64PromoteF32):
			regs[t.d] = rt.F64Bits(float64(rt.F32(regs[t.a])))
		case uint16(wasm.OpI32ReinterpretF32), uint16(wasm.OpI64ReinterpretF64),
			uint16(wasm.OpF32ReinterpretI32), uint16(wasm.OpF64ReinterpretI64):
			regs[t.d] = regs[t.a]
		case uint16(wasm.OpI32Extend8S):
			regs[t.d] = uint64(uint32(int32(int8(uint8(regs[t.a])))))
		case uint16(wasm.OpI32Extend16S):
			regs[t.d] = uint64(uint32(int32(int16(uint16(regs[t.a])))))
		case uint16(wasm.OpI64Extend8S):
			regs[t.d] = uint64(int64(int8(uint8(regs[t.a]))))
		case uint16(wasm.OpI64Extend16S):
			regs[t.d] = uint64(int64(int16(uint16(regs[t.a]))))
		case uint16(wasm.OpI64Extend32S):
			regs[t.d] = uint64(int64(int32(uint32(regs[t.a]))))

		// Fused compare-and-branch, register operands.
		case tBrI32Eq:
			if uint32(regs[t.a]) == uint32(regs[t.b]) {
				goto taken
			}
		case tBrI32Ne:
			if uint32(regs[t.a]) != uint32(regs[t.b]) {
				goto taken
			}
		case tBrI32LtS:
			if int32(regs[t.a]) < int32(regs[t.b]) {
				goto taken
			}
		case tBrI32LtU:
			if uint32(regs[t.a]) < uint32(regs[t.b]) {
				goto taken
			}
		case tBrI32GtS:
			if int32(regs[t.a]) > int32(regs[t.b]) {
				goto taken
			}
		case tBrI32GtU:
			if uint32(regs[t.a]) > uint32(regs[t.b]) {
				goto taken
			}
		case tBrI32LeS:
			if int32(regs[t.a]) <= int32(regs[t.b]) {
				goto taken
			}
		case tBrI32LeU:
			if uint32(regs[t.a]) <= uint32(regs[t.b]) {
				goto taken
			}
		case tBrI32GeS:
			if int32(regs[t.a]) >= int32(regs[t.b]) {
				goto taken
			}
		case tBrI32GeU:
			if uint32(regs[t.a]) >= uint32(regs[t.b]) {
				goto taken
			}
		case tBrI64Eq:
			if regs[t.a] == regs[t.b] {
				goto taken
			}
		case tBrI64Ne:
			if regs[t.a] != regs[t.b] {
				goto taken
			}
		case tBrI64LtS:
			if int64(regs[t.a]) < int64(regs[t.b]) {
				goto taken
			}
		case tBrI64LtU:
			if regs[t.a] < regs[t.b] {
				goto taken
			}
		case tBrI64GtS:
			if int64(regs[t.a]) > int64(regs[t.b]) {
				goto taken
			}
		case tBrI64GtU:
			if regs[t.a] > regs[t.b] {
				goto taken
			}
		case tBrI64LeS:
			if int64(regs[t.a]) <= int64(regs[t.b]) {
				goto taken
			}
		case tBrI64LeU:
			if regs[t.a] <= regs[t.b] {
				goto taken
			}
		case tBrI64GeS:
			if int64(regs[t.a]) >= int64(regs[t.b]) {
				goto taken
			}
		case tBrI64GeU:
			if regs[t.a] >= regs[t.b] {
				goto taken
			}
		case tBrF32Eq:
			if rt.F32(regs[t.a]) == rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF32Ne:
			if rt.F32(regs[t.a]) != rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF32Lt:
			if rt.F32(regs[t.a]) < rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF32Gt:
			if rt.F32(regs[t.a]) > rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF32Le:
			if rt.F32(regs[t.a]) <= rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF32Ge:
			if rt.F32(regs[t.a]) >= rt.F32(regs[t.b]) {
				goto taken
			}
		case tBrF64Eq:
			if rt.F64(regs[t.a]) == rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF64Ne:
			if rt.F64(regs[t.a]) != rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF64Lt:
			if rt.F64(regs[t.a]) < rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF64Gt:
			if rt.F64(regs[t.a]) > rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF64Le:
			if rt.F64(regs[t.a]) <= rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF64Ge:
			if rt.F64(regs[t.a]) >= rt.F64(regs[t.b]) {
				goto taken
			}
		case tBrF32NotLt:
			if !(rt.F32(regs[t.a]) < rt.F32(regs[t.b])) {
				goto taken
			}
		case tBrF32NotGt:
			if !(rt.F32(regs[t.a]) > rt.F32(regs[t.b])) {
				goto taken
			}
		case tBrF32NotLe:
			if !(rt.F32(regs[t.a]) <= rt.F32(regs[t.b])) {
				goto taken
			}
		case tBrF32NotGe:
			if !(rt.F32(regs[t.a]) >= rt.F32(regs[t.b])) {
				goto taken
			}
		case tBrF64NotLt:
			if !(rt.F64(regs[t.a]) < rt.F64(regs[t.b])) {
				goto taken
			}
		case tBrF64NotGt:
			if !(rt.F64(regs[t.a]) > rt.F64(regs[t.b])) {
				goto taken
			}
		case tBrF64NotLe:
			if !(rt.F64(regs[t.a]) <= rt.F64(regs[t.b])) {
				goto taken
			}
		case tBrF64NotGe:
			if !(rt.F64(regs[t.a]) >= rt.F64(regs[t.b])) {
				goto taken
			}

		// Fused compare-and-branch against a constant.
		case tBrI32EqImm:
			if int32(regs[t.a]) == t.b {
				goto taken
			}
		case tBrI32NeImm:
			if int32(regs[t.a]) != t.b {
				goto taken
			}
		case tBrI32LtSImm:
			if int32(regs[t.a]) < t.b {
				goto taken
			}
		case tBrI32LtUImm:
			if uint32(regs[t.a]) < uint32(t.b) {
				goto taken
			}
		case tBrI32GtSImm:
			if int32(regs[t.a]) > t.b {
				goto taken
			}
		case tBrI32GtUImm:
			if uint32(regs[t.a]) > uint32(t.b) {
				goto taken
			}
		case tBrI32LeSImm:
			if int32(regs[t.a]) <= t.b {
				goto taken
			}
		case tBrI32LeUImm:
			if uint32(regs[t.a]) <= uint32(t.b) {
				goto taken
			}
		case tBrI32GeSImm:
			if int32(regs[t.a]) >= t.b {
				goto taken
			}
		case tBrI32GeUImm:
			if uint32(regs[t.a]) >= uint32(t.b) {
				goto taken
			}
		case tBrI64EqImm:
			if int64(regs[t.a]) == int64(t.b) {
				goto taken
			}
		case tBrI64NeImm:
			if int64(regs[t.a]) != int64(t.b) {
				goto taken
			}
		case tBrI64LtSImm:
			if int64(regs[t.a]) < int64(t.b) {
				goto taken
			}
		case tBrI64LtUImm:
			if regs[t.a] < uint64(int64(t.b)) {
				goto taken
			}
		case tBrI64GtSImm:
			if int64(regs[t.a]) > int64(t.b) {
				goto taken
			}
		case tBrI64GtUImm:
			if regs[t.a] > uint64(int64(t.b)) {
				goto taken
			}
		case tBrI64LeSImm:
			if int64(regs[t.a]) <= int64(t.b) {
				goto taken
			}
		case tBrI64LeUImm:
			if regs[t.a] <= uint64(int64(t.b)) {
				goto taken
			}
		case tBrI64GeSImm:
			if int64(regs[t.a]) >= int64(t.b) {
				goto taken
			}
		case tBrI64GeUImm:
			if regs[t.a] >= uint64(int64(t.b)) {
				goto taken
			}

		// Comparison against a constant.
		case tI32EqImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == uint32(t.imm))
		case tI32NeImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) != uint32(t.imm))
		case tI32LtSImm:
			regs[t.d] = rt.B2i(int32(regs[t.a]) < int32(t.imm))
		case tI32LtUImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) < uint32(t.imm))
		case tI32GtSImm:
			regs[t.d] = rt.B2i(int32(regs[t.a]) > int32(t.imm))
		case tI32GtUImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) > uint32(t.imm))
		case tI32LeSImm:
			regs[t.d] = rt.B2i(int32(regs[t.a]) <= int32(t.imm))
		case tI32LeUImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) <= uint32(t.imm))
		case tI32GeSImm:
			regs[t.d] = rt.B2i(int32(regs[t.a]) >= int32(t.imm))
		case tI32GeUImm:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) >= uint32(t.imm))
		case tI64EqImm:
			regs[t.d] = rt.B2i(regs[t.a] == t.imm)
		case tI64NeImm:
			regs[t.d] = rt.B2i(regs[t.a] != t.imm)
		case tI64LtSImm:
			regs[t.d] = rt.B2i(int64(regs[t.a]) < int64(t.imm))
		case tI64LtUImm:
			regs[t.d] = rt.B2i(regs[t.a] < t.imm)
		case tI64GtSImm:
			regs[t.d] = rt.B2i(int64(regs[t.a]) > int64(t.imm))
		case tI64GtUImm:
			regs[t.d] = rt.B2i(regs[t.a] > t.imm)
		case tI64LeSImm:
			regs[t.d] = rt.B2i(int64(regs[t.a]) <= int64(t.imm))
		case tI64LeUImm:
			regs[t.d] = rt.B2i(regs[t.a] <= t.imm)
		case tI64GeSImm:
			regs[t.d] = rt.B2i(int64(regs[t.a]) >= int64(t.imm))
		case tI64GeUImm:
			regs[t.d] = rt.B2i(regs[t.a] >= t.imm)

		// Arithmetic with a constant operand. Shift counts were masked when
		// the form was selected.
		case tI32AddImm:
			regs[t.d] = uint64(uint32(regs[t.a]) + uint32(t.imm))
		case tI32MulImm:
			regs[t.d] = uint64(uint32(regs[t.a]) * uint32(t.imm))
		case tI32AndImm:
			regs[t.d] = uint64(uint32(regs[t.a]) & uint32(t.imm))
		case tI32OrImm:
			regs[t.d] = uint64(uint32(regs[t.a]) | uint32(t.imm))
		case tI32XorImm:
			regs[t.d] = uint64(uint32(regs[t.a]) ^ uint32(t.imm))
		case tI32ShlImm:
			regs[t.d] = uint64(uint32(regs[t.a]) << (t.imm & 31))
		case tI32ShrSImm:
			regs[t.d] = uint64(uint32(int32(regs[t.a]) >> (t.imm & 31)))
		case tI32ShrUImm:
			regs[t.d] = uint64(uint32(regs[t.a]) >> (t.imm & 31))
		case tI32RsubImm:
			regs[t.d] = uint64(uint32(t.imm) - uint32(regs[t.a]))
		case tI64AddImm:
			regs[t.d] = regs[t.a] + t.imm
		case tI64MulImm:
			regs[t.d] = regs[t.a] * t.imm
		case tI64AndImm:
			regs[t.d] = regs[t.a] & t.imm
		case tI64OrImm:
			regs[t.d] = regs[t.a] | t.imm
		case tI64XorImm:
			regs[t.d] = regs[t.a] ^ t.imm
		case tI64ShlImm:
			regs[t.d] = regs[t.a] << (t.imm & 63)
		case tI64ShrSImm:
			regs[t.d] = uint64(int64(regs[t.a]) >> (t.imm & 63))
		case tI64ShrUImm:
			regs[t.d] = regs[t.a] >> (t.imm & 63)
		case tI64RsubImm:
			regs[t.d] = t.imm - regs[t.a]

		// Loads with an addressing mode. The index arithmetic wraps at 32 bits
		// exactly like the i32.shl / i32.add it replaces; the offset is added
		// without wrapping — the same address, the same trap.
		case tLoad32Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld32u
		case tLoad64Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld64
		case tLoad8S32Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld8s32
		case tLoad8UScaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld8u
		case tLoad16S32Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld16s32
		case tLoad16UScaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld16u
		case tLoad8S64Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld8s64
		case tLoad16S64Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld16s64
		case tLoad32S64Scaled:
			ea = uint64(uint32(regs[t.a])<<(uint32(t.b)&31)) + t.imm
			goto ld32s64
		case tLoad32Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld32u
		case tLoad64Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld64
		case tLoad8S32Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld8s32
		case tLoad8UIndexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld8u
		case tLoad16S32Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld16s32
		case tLoad16UIndexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld16u
		case tLoad8S64Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld8s64
		case tLoad16S64Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld16s64
		case tLoad32S64Indexed:
			ea = uint64(uint32(regs[t.a])+uint32(regs[t.b])) + t.imm
			goto ld32s64

		// Read-modify-write accumulation.
		case tI64AddMem:
			ea, v = uint64(uint32(regs[t.a]))+t.imm, regs[t.b]
			goto add64
		case tI64AddMemImm:
			ea, v = uint64(uint32(regs[t.a]))+t.imm, uint64(int64(t.b))
			goto add64

		default:
			rt.Trap("turbofan: unknown opcode %#x", t.op)
		}
		pc++
		continue

	taken:
		if env.Metered && int(t.imm) <= pc {
			env.UseFuel(1)
		}
		pc = int(t.imm)
		continue

		// The access tails, one per width and extension. The fast path is a
		// page-table index and one length test, which covers both bounds and
		// presence: a committed or host-mapped page is 64 KiB long, a reserved
		// (demand-zero) page is nil, and the table is never longer than 2¹⁶
		// pages, so an address that passes lies below 4 GiB and below the end
		// of memory. The bytes are combined by hand, which compiles to one
		// load or store. Everything else — a reserved page, an access that
		// straddles a page, an address past the end or past 4 GiB — takes the
		// slow path: rt.CheckAddr, then the wmem accessor, which commits the
		// page or raises the trap.

	ld8u:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+1 <= len(pages[p]) {
			b := pages[p][off : off+1]
			regs[t.d] = uint64(b[0])
		} else {
			regs[t.d] = uint64(mem.U8(rt.CheckAddr(ea, 1)))
		}
		pc++
		continue

	ld8s32:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+1 <= len(pages[p]) {
			b := pages[p][off : off+1]
			regs[t.d] = uint64(uint32(int32(int8(b[0]))))
		} else {
			regs[t.d] = uint64(uint32(int32(int8(mem.U8(rt.CheckAddr(ea, 1))))))
		}
		pc++
		continue

	ld8s64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+1 <= len(pages[p]) {
			b := pages[p][off : off+1]
			regs[t.d] = uint64(int64(int8(b[0])))
		} else {
			regs[t.d] = uint64(int64(int8(mem.U8(rt.CheckAddr(ea, 1)))))
		}
		pc++
		continue

	ld16u:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+2 <= len(pages[p]) {
			b := pages[p][off : off+2]
			regs[t.d] = uint64(uint16(b[0]) | uint16(b[1])<<8)
		} else {
			regs[t.d] = uint64(mem.U16(rt.CheckAddr(ea, 2)))
		}
		pc++
		continue

	ld16s32:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+2 <= len(pages[p]) {
			b := pages[p][off : off+2]
			regs[t.d] = uint64(uint32(int32(int16(uint16(b[0]) | uint16(b[1])<<8))))
		} else {
			regs[t.d] = uint64(uint32(int32(int16(mem.U16(rt.CheckAddr(ea, 2))))))
		}
		pc++
		continue

	ld16s64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+2 <= len(pages[p]) {
			b := pages[p][off : off+2]
			regs[t.d] = uint64(int64(int16(uint16(b[0]) | uint16(b[1])<<8)))
		} else {
			regs[t.d] = uint64(int64(int16(mem.U16(rt.CheckAddr(ea, 2)))))
		}
		pc++
		continue

	ld32u:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+4 <= len(pages[p]) {
			b := pages[p][off : off+4]
			regs[t.d] = uint64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		} else {
			regs[t.d] = uint64(mem.U32(rt.CheckAddr(ea, 4)))
		}
		pc++
		continue

	ld32s64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+4 <= len(pages[p]) {
			b := pages[p][off : off+4]
			regs[t.d] = uint64(int64(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)))
		} else {
			regs[t.d] = uint64(int64(int32(mem.U32(rt.CheckAddr(ea, 4)))))
		}
		pc++
		continue

	ld64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+8 <= len(pages[p]) {
			b := pages[p][off : off+8]
			regs[t.d] = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		} else {
			regs[t.d] = mem.U64(rt.CheckAddr(ea, 8))
		}
		pc++
		continue

	st8:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+1 <= len(pages[p]) {
			b, x := pages[p][off:off+1], regs[t.b]
			b[0] = byte(x)
		} else {
			mem.PutU8(rt.CheckAddr(ea, 1), byte(regs[t.b]))
		}
		pc++
		continue

	st16:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+2 <= len(pages[p]) {
			b, x := pages[p][off:off+2], regs[t.b]
			b[0], b[1] = byte(x), byte(x>>8)
		} else {
			mem.PutU16(rt.CheckAddr(ea, 2), uint16(regs[t.b]))
		}
		pc++
		continue

	st32:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+4 <= len(pages[p]) {
			b, x := pages[p][off:off+4], regs[t.b]
			b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		} else {
			mem.PutU32(rt.CheckAddr(ea, 4), uint32(regs[t.b]))
		}
		pc++
		continue

	st64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+8 <= len(pages[p]) {
			b, x := pages[p][off:off+8], regs[t.b]
			b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			b[4], b[5], b[6], b[7] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
		} else {
			mem.PutU64(rt.CheckAddr(ea, 8), regs[t.b])
		}
		pc++
		continue

	add64:
		if p, off := ea>>16, int(ea&0xFFFF); p < uint64(len(pages)) && off+8 <= len(pages[p]) {
			b := pages[p][off : off+8]
			x := v + (uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
			b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			b[4], b[5], b[6], b[7] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
		} else {
			a := rt.CheckAddr(ea, 8)
			mem.PutU64(a, mem.U64(a)+v)
		}
		pc++
	}
}
