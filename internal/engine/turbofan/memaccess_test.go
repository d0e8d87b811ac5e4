package turbofan

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// memLoads are the wasm loads with their access size and extension.
var memLoads = []struct {
	op     wasm.Opcode
	size   uint32
	signed bool
}{
	{wasm.OpI32Load, 4, false}, {wasm.OpI64Load, 8, false}, {wasm.OpF32Load, 4, false}, {wasm.OpF64Load, 8, false},
	{wasm.OpI32Load8S, 1, true}, {wasm.OpI32Load8U, 1, false}, {wasm.OpI32Load16S, 2, true}, {wasm.OpI32Load16U, 2, false},
	{wasm.OpI64Load8S, 1, true}, {wasm.OpI64Load8U, 1, false}, {wasm.OpI64Load16S, 2, true}, {wasm.OpI64Load16U, 2, false},
	{wasm.OpI64Load32S, 4, true}, {wasm.OpI64Load32U, 4, false},
}

// memStores are the wasm stores with their access size.
var memStores = []struct {
	op   wasm.Opcode
	size uint32
}{
	{wasm.OpI32Store, 4}, {wasm.OpI64Store, 8}, {wasm.OpF32Store, 4}, {wasm.OpF64Store, 8},
	{wasm.OpI32Store8, 1}, {wasm.OpI32Store16, 2}, {wasm.OpI64Store8, 1}, {wasm.OpI64Store16, 2}, {wasm.OpI64Store32, 4},
}

// refLoad reads size bytes little-endian through wmem's accessors.
func refLoad(m *wmem.Memory, ea uint32, size uint32) uint64 {
	switch size {
	case 1:
		return uint64(m.U8(ea))
	case 2:
		return uint64(m.U16(ea))
	case 4:
		return uint64(m.U32(ea))
	}
	return m.U64(ea)
}

// refStore writes the low size bytes of v through wmem's accessors.
func refStore(m *wmem.Memory, ea uint32, size uint32, v uint64) {
	switch size {
	case 1:
		m.PutU8(ea, byte(v))
	case 2:
		m.PutU16(ea, uint16(v))
	case 4:
		m.PutU32(ea, uint32(v))
	default:
		m.PutU64(ea, v)
	}
}

// refAddress is the access check as the spec states it, written apart from
// the run loop's: an access whose last byte lies past 4 GiB traps with the
// address truncated to 32 bits; below that, wmem decides.
func refAddress(ea uint64, size uint32) uint32 {
	if ea+uint64(size) > 1<<32 {
		panic(&wmem.Trap{Addr: uint32(ea), Size: size, Msg: "out-of-bounds memory access"})
	}
	return uint32(ea)
}

// memAccess is one function of the conformance module: a memory instruction
// behind one addressing form and one static offset.
type memAccess struct {
	name   string
	fn     int    // index into the module's functions
	offset uint64 // the static offset
	size   uint32
	mode   string // "plain", "scaled" (base<<1) or "indexed" (a+b)
	// ref performs the access on the twin memory at effective address ea
	// with argument b and returns the result (0 for stores).
	ref func(m *wmem.Memory, ea uint64, b uint64) uint64
}

// conformanceModule builds one function per memory instruction, addressing
// form and static offset. Loads take (a, b i32) and return the loaded value;
// stores and the read-modify-write updates take (a i32, b i64) and store b,
// or add it (a constant 7 for add@mem@imm) to the i64 at the address; one
// more function stores b and loads it back.
// Scaled addresses are even, so scaled loads get the odd offsets too.
func conformanceModule() (*wasm.Module, []memAccess) {
	const pages = 4
	b := wasm.NewModuleBuilder()
	b.AddMemory(pages, pages)
	var acc []memAccess
	add := func(name string, off uint64, size uint32, mode string, params []wasm.ValType, results []wasm.ValType,
		body func(f *wasm.FuncBuilder), ref func(m *wmem.Memory, ea, b uint64) uint64) {
		f := b.NewFunc(fmt.Sprintf("f%d", len(acc)), wasm.FuncType{Params: params, Results: results})
		body(f)
		acc = append(acc, memAccess{name: name, fn: len(acc), offset: off, size: size, mode: mode, ref: ref})
	}
	address := func(f *wasm.FuncBuilder, mode string) {
		f.LocalGet(0)
		switch mode {
		case "scaled":
			f.I32Const(1)
			f.Op(wasm.OpI32Shl)
		case "indexed":
			f.LocalGet(1)
			f.I32Add()
		}
	}
	i32, i64 := wasm.I32, wasm.I64
	for _, off := range []uint64{0, 1, 1<<32 - 8, 1<<32 - 7} {
		for _, l := range memLoads {
			res, _ := l.op.ResultType()
			for _, mode := range []string{"plain", "scaled", "indexed"} {
				if mode != "scaled" && off&1 != 0 {
					continue
				}
				add(l.op.String(), off, l.size, mode, []wasm.ValType{i32, i32}, []wasm.ValType{res},
					func(f *wasm.FuncBuilder) {
						address(f, mode)
						f.Emit(l.op, off, 0)
					},
					func(m *wmem.Memory, ea, _ uint64) uint64 {
						v := refLoad(m, refAddress(ea, l.size), l.size)
						if l.signed {
							s := 64 - 8*l.size
							v = uint64(int64(v<<s) >> s)
						}
						if res == wasm.I32 || res == wasm.F32 {
							v = uint64(uint32(v))
						}
						return v
					})
			}
		}
		if off&1 != 0 {
			continue
		}
		for _, s := range memStores {
			add(s.op.String(), off, s.size, "plain", []wasm.ValType{i32, i64}, nil,
				func(f *wasm.FuncBuilder) {
					f.LocalGet(0)
					f.LocalGet(1)
					switch s.op {
					case wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16:
						f.Op(wasm.OpI32WrapI64)
					case wasm.OpF32Store:
						f.Op(wasm.OpI32WrapI64)
						f.Op(wasm.OpF32ReinterpretI32)
					case wasm.OpF64Store:
						f.Op(wasm.OpF64ReinterpretI64)
					}
					f.Emit(s.op, off, 0)
				},
				func(m *wmem.Memory, ea, b uint64) uint64 {
					refStore(m, refAddress(ea, s.size), s.size, b)
					return 0
				})
		}
		// A store that commits a reserved page, then a load of it in the same
		// call: the run loop's cached page table must show the commit.
		add("i64.store; i64.load", off, 8, "plain", []wasm.ValType{i32, i64}, []wasm.ValType{i64},
			func(f *wasm.FuncBuilder) {
				f.LocalGet(0)
				f.LocalGet(1)
				f.Emit(wasm.OpI64Store, off, 3)
				f.LocalGet(0)
				f.Emit(wasm.OpI64Load, off, 3)
			},
			func(m *wmem.Memory, ea, b uint64) uint64 {
				a := refAddress(ea, 8)
				m.PutU64(a, b)
				return m.U64(a)
			})
		for _, imm := range []bool{false, true} {
			name := "i64.add@mem"
			if imm {
				name += "@imm"
			}
			add(name, off, 8, "plain", []wasm.ValType{i32, i64}, nil,
				func(f *wasm.FuncBuilder) {
					f.LocalGet(0)
					f.LocalGet(0)
					f.Emit(wasm.OpI64Load, off, 3)
					if imm {
						f.I64Const(7)
					} else {
						f.LocalGet(1)
					}
					f.I64Add()
					f.Emit(wasm.OpI64Store, off, 3)
				},
				func(m *wmem.Memory, ea, b uint64) uint64 {
					if imm {
						b = 7
					}
					a := refAddress(ea, 8)
					m.PutU64(a, m.U64(a)+b)
					return 0
				})
		}
	}
	return b.Module(), acc
}

// conformanceMemory builds the four-page memory both sides of a case start
// from: page 0 reserved, page 1 committed, page 2 host-mapped, page 3
// reserved. The committed and mapped pages hold a pattern in which every
// byte value occurs, so sign extension shows.
func conformanceMemory(t *testing.T, pattern []byte) *wmem.Memory {
	const ps = wmem.PageSize
	m := wmem.New(4, 4)
	m.WriteBytes(ps, pattern[:ps])
	if err := m.Map(2*ps, bytes.Clone(pattern[ps:])); err != nil {
		t.Fatal(err)
	}
	return m
}

// outcome runs fn and returns its result and the trap it raised, as text.
func outcome(fn func() uint64) (v uint64, trap string) {
	defer func() {
		if r := recover(); r != nil {
			trap = fmt.Sprint(r)
		}
	}()
	return fn(), ""
}

// TestMemoryAccessConformance drives every memory instruction of the run loop
// — each load width and extension through plain, scaled and indexed
// addressing, each store, i64.add@mem and i64.add@mem@imm — as compiled by
// both compilers, at every position that takes a different path: in a page,
// ending at a page's last byte, starting at it (straddling into the next page
// for a wide access), on a reserved, a committed and a host-mapped page; at
// the end of memory, straddling it and one page past it; and, through a
// static offset of 2³² − 8, below, across and past 4 GiB, where the base plus
// the offset does not wrap. Scaled and indexed addresses are reached once
// more through an index that wraps at 32 bits. Each outcome is compared with
// wmem's accessors on a twin memory: the value, the trap (message, address
// and size), every page's contents and presence, and Committed().
func TestMemoryAccessConformance(t *testing.T) {
	const ps = wmem.PageSize
	m, accs := conformanceModule()
	if err := wasm.Validate(m); err != nil {
		t.Fatal(err)
	}
	compilers := []struct {
		name    string
		compile func(*wasm.Module, *wasm.Func) (*Code, error)
	}{{"baseline", CompileBaseline}, {"optimizing", Compile}}
	seen := map[uint16]bool{}
	codes := make([][]*Code, len(compilers))
	for ci, c := range compilers {
		for i := range m.Funcs {
			code, err := c.compile(m, &m.Funcs[i])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, in := range code.ins {
				seen[in.op] = true
			}
			codes[ci] = append(codes[ci], code)
		}
	}
	for op := range uint16(numOps) {
		if ops[op].kind.memory() && !seen[op] {
			t.Errorf("%s: no function of the corpus compiles to it", ops[op].name)
		}
	}

	// The effective addresses every access is driven to.
	var targets []uint64
	for p := uint64(0); p < 4; p++ {
		targets = append(targets, p*ps+8)
		for k := uint64(1); k <= 8; k++ {
			targets = append(targets, p*ps+ps-k) // the last in-page position and the first straddle of each width
		}
	}
	targets = append(targets, 4*ps, 5*ps+8, 1<<32-8, 1<<32-1, 1<<32, 1<<32+8, 1<<33-16)

	pattern := make([]byte, 2*ps)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>8)
	}
	cases := 0
	for _, a := range accs {
		for _, ea := range targets {
			if ea < a.offset || (a.offset <= 1) != (ea < 1<<32-8) {
				continue // each target is reached from the offsets near it
			}
			rel := ea - a.offset
			var args [][2]uint64
			switch a.mode {
			case "plain":
				if rel < 1<<32 {
					args = append(args, [2]uint64{rel, 0x0123456789ABCDEF})
				}
			case "scaled":
				if rel%2 == 0 && rel < 1<<32 {
					i := rel / 2
					args = append(args, [2]uint64{i, 0}, [2]uint64{(i + 1<<31) & math.MaxUint32, 0})
				}
			case "indexed":
				if rel < 1<<32 {
					args = append(args, [2]uint64{rel / 2, rel - rel/2}, [2]uint64{(rel - 1<<31) & math.MaxUint32, 1 << 31})
				}
			}
			for _, arg := range args {
				for ci, c := range compilers {
					cases++
					code := codes[ci][a.fn]
					got, want := conformanceMemory(t, pattern), conformanceMemory(t, pattern)
					gv, gtrap := outcome(func() uint64 {
						res := make([]uint64, 1)
						code.Call(&rt.Env{Mem: got}, arg[:], res)
						return res[0]
					})
					wv, wtrap := outcome(func() uint64 { return a.ref(want, ea, arg[1]) })
					what := fmt.Sprintf("%s %s offset %#x at %#x (args %#x), %s", a.name, a.mode, a.offset, ea, arg, c.name)
					if gtrap != wtrap {
						t.Fatalf("%s: trap %q, want %q", what, gtrap, wtrap)
					}
					if gv != wv {
						t.Fatalf("%s: value %#x, want %#x", what, gv, wv)
					}
					if got.Committed() != want.Committed() {
						t.Fatalf("%s: %d pages committed, want %d", what, got.Committed(), want.Committed())
					}
					gp, wp := got.PageSlice(), want.PageSlice()
					for p := range gp {
						if (gp[p] == nil) != (wp[p] == nil) || !bytes.Equal(gp[p], wp[p]) {
							t.Fatalf("%s: page %d differs from the twin's", what, p)
						}
					}
				}
			}
		}
	}
	t.Logf("%d accesses over %d functions and two compilers", cases, len(accs))
}
