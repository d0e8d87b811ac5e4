package wasm

import "encoding/binary"

// Section ids of the binary format.
const (
	secCustom   = 0
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElem     = 9
	secCode     = 10
	secData     = 11
)

var magic = []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}

// Encode serializes the module into the WebAssembly binary format. Every
// section body is written straight into the output behind room for its
// length prefix (openSection, closeSection), and the output is sized up front
// from the bodies and data it copies, so an encode allocates about once.
func Encode(m *Module) []byte {
	out := append(make([]byte, 0, encodedSizeHint(m)), magic...)
	var at int

	// Type section.
	if len(m.Types) > 0 {
		out, at = openSection(out, secType)
		out = AppendUleb(out, uint64(len(m.Types)))
		for _, t := range m.Types {
			out = append(out, 0x60)
			out = AppendUleb(out, uint64(len(t.Params)))
			for _, p := range t.Params {
				out = append(out, byte(p))
			}
			out = AppendUleb(out, uint64(len(t.Results)))
			for _, r := range t.Results {
				out = append(out, byte(r))
			}
		}
		out = closeSection(out, at)
	}

	// Import section.
	if len(m.Imports) > 0 {
		out, at = openSection(out, secImport)
		out = AppendUleb(out, uint64(len(m.Imports)))
		for _, im := range m.Imports {
			out = appendName(out, im.Module)
			out = appendName(out, im.Name)
			out = append(out, byte(im.Kind))
			switch im.Kind {
			case ExternFunc:
				out = AppendUleb(out, uint64(im.Type))
			case ExternMemory:
				out = appendLimits(out, im.Mem)
			case ExternGlobal:
				out = append(out, byte(im.Global.Type), boolByte(im.Global.Mutable))
			case ExternTable:
				out = append(out, 0x70) // funcref
				out = appendLimits(out, im.Table)
			}
		}
		out = closeSection(out, at)
	}

	// Function section.
	if len(m.Funcs) > 0 {
		out, at = openSection(out, secFunction)
		out = AppendUleb(out, uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			out = AppendUleb(out, uint64(f.Type))
		}
		out = closeSection(out, at)
	}

	// Table section.
	if m.HasTable {
		out, at = openSection(out, secTable)
		out = AppendUleb(out, 1)
		out = append(out, 0x70) // funcref
		out = appendLimits(out, Limits{Min: m.TableMin})
		out = closeSection(out, at)
	}

	// Memory section.
	if m.HasMemory {
		out, at = openSection(out, secMemory)
		out = AppendUleb(out, 1)
		out = appendLimits(out, m.Memory)
		out = closeSection(out, at)
	}

	// Global section.
	if len(m.Globals) > 0 {
		out, at = openSection(out, secGlobal)
		out = AppendUleb(out, uint64(len(m.Globals)))
		for _, g := range m.Globals {
			out = append(out, byte(g.Type.Type), boolByte(g.Type.Mutable))
			switch g.Type.Type {
			case I32:
				out = append(out, byte(OpI32Const))
				out = AppendSleb(out, int64(int32(uint32(g.Init))))
			case I64:
				out = append(out, byte(OpI64Const))
				out = AppendSleb(out, int64(g.Init))
			case F32:
				out = append(out, byte(OpF32Const))
				out = binary.LittleEndian.AppendUint32(out, uint32(g.Init))
			case F64:
				out = append(out, byte(OpF64Const))
				out = binary.LittleEndian.AppendUint64(out, g.Init)
			}
			out = append(out, byte(OpEnd))
		}
		out = closeSection(out, at)
	}

	// Export section.
	if len(m.Exports) > 0 {
		out, at = openSection(out, secExport)
		out = AppendUleb(out, uint64(len(m.Exports)))
		for _, e := range m.Exports {
			out = appendName(out, e.Name)
			out = append(out, byte(e.Kind))
			out = AppendUleb(out, uint64(e.Index))
		}
		out = closeSection(out, at)
	}

	// Start section.
	if m.Start >= 0 {
		out, at = openSection(out, secStart)
		out = AppendUleb(out, uint64(m.Start))
		out = closeSection(out, at)
	}

	// Element section.
	if len(m.Elems) > 0 {
		out, at = openSection(out, secElem)
		out = AppendUleb(out, uint64(len(m.Elems)))
		for _, e := range m.Elems {
			out = AppendUleb(out, 0) // active, table 0
			out = append(out, byte(OpI32Const))
			out = AppendSleb(out, int64(int32(e.Offset)))
			out = append(out, byte(OpEnd))
			out = AppendUleb(out, uint64(len(e.Funcs)))
			for _, fi := range e.Funcs {
				out = AppendUleb(out, uint64(fi))
			}
		}
		out = closeSection(out, at)
	}

	// Code section.
	if len(m.Funcs) > 0 {
		out, at = openSection(out, secCode)
		out = AppendUleb(out, uint64(len(m.Funcs)))
		var scratch [32]byte // the locals vector of a function, usually
		for i := range m.Funcs {
			f := &m.Funcs[i]
			locals := appendLocals(scratch[:0], f.Locals)
			out = AppendUleb(out, uint64(len(locals)+len(f.Code)))
			out = append(append(out, locals...), f.Code...)
		}
		out = closeSection(out, at)
	}

	// Data section.
	if len(m.Data) > 0 {
		out, at = openSection(out, secData)
		out = AppendUleb(out, uint64(len(m.Data)))
		for _, d := range m.Data {
			out = AppendUleb(out, 0) // active, memory 0
			out = append(out, byte(OpI32Const))
			out = AppendSleb(out, int64(int32(d.Offset)))
			out = append(out, byte(OpEnd))
			out = AppendUleb(out, uint64(len(d.Bytes)))
			out = append(out, d.Bytes...)
		}
		out = closeSection(out, at)
	}

	// Name section (function names only), for debuggability.
	if hasNames(m) {
		out, at = openSection(out, secCustom)
		out = appendName(out, "name")
		var sub int
		out, sub = openSection(out, 1) // function names subsection
		n := 0
		for i := range m.Funcs {
			if m.Funcs[i].Name != "" {
				n++
			}
		}
		out = AppendUleb(out, uint64(n))
		base := uint64(m.NumImportedFuncs())
		for i := range m.Funcs {
			if m.Funcs[i].Name == "" {
				continue
			}
			out = AppendUleb(out, base+uint64(i))
			out = appendName(out, m.Funcs[i].Name)
		}
		out = closeSection(out, sub)
		out = closeSection(out, at)
	}

	return out
}

// encodedSizeHint estimates the encoded size of m from what Encode copies
// (bodies, data, names) plus a few bytes per entry for ids, counts and
// immediates.
func encodedSizeHint(m *Module) int {
	n := 64 + 16*(len(m.Types)+len(m.Imports)+len(m.Globals)+len(m.Exports)+len(m.Elems)+len(m.Data))
	for i := range m.Funcs {
		n += len(m.Funcs[i].Code) + len(m.Funcs[i].Name) + 8
	}
	for _, d := range m.Data {
		n += len(d.Bytes)
	}
	for _, e := range m.Exports {
		n += len(e.Name)
	}
	for _, e := range m.Elems {
		n += 2 * len(e.Funcs)
	}
	return n
}

func hasNames(m *Module) bool {
	for i := range m.Funcs {
		if m.Funcs[i].Name != "" {
			return true
		}
	}
	return false
}

// appendLocals appends the locals vector, run-length compressed.
func appendLocals(out []byte, locals []ValType) []byte {
	runs := 0
	for i := range locals {
		if i == 0 || locals[i] != locals[i-1] {
			runs++
		}
	}
	out = AppendUleb(out, uint64(runs))
	for i := 0; i < len(locals); {
		j := i + 1
		for j < len(locals) && locals[j] == locals[i] {
			j++
		}
		out = append(AppendUleb(out, uint64(j-i)), byte(locals[i]))
		i = j
	}
	return out
}

func appendInstr(body []byte, in Instr) []byte {
	body = append(body, byte(in.Op))
	switch in.Op.Imm() {
	case ImmNone:
	case ImmBlockType:
		body = append(body, byte(in.A))
	case ImmLabel, ImmFuncIdx, ImmLocalIdx, ImmGlobalIdx:
		body = AppendUleb(body, in.A)
	case ImmBrTable:
		body = AppendUleb(body, uint64(len(in.Table)))
		for _, t := range in.Table {
			body = AppendUleb(body, uint64(t))
		}
		body = AppendUleb(body, in.A)
	case ImmTypeIdx:
		body = AppendUleb(body, in.A)
		body = append(body, 0x00)
	case ImmMemArg:
		body = AppendUleb(body, in.B) // align
		body = AppendUleb(body, in.A) // offset
	case ImmMemIdx:
		body = append(body, 0x00)
	case ImmI32:
		body = AppendSleb(body, int64(int32(uint32(in.A))))
	case ImmI64:
		body = AppendSleb(body, int64(in.A))
	case ImmF32:
		body = binary.LittleEndian.AppendUint32(body, uint32(in.A))
	case ImmF64:
		body = binary.LittleEndian.AppendUint64(body, in.A)
	}
	return body
}

// sectionRoom is the room openSection leaves for a length prefix: the
// longest unsigned LEB128 encoding of a u32.
const sectionRoom = 5

// openSection appends a section (or subsection) id and room for its length
// prefix, and returns where the body starts.
func openSection(out []byte, id byte) ([]byte, int) {
	out = append(out, id)
	out = append(out, make([]byte, sectionRoom)...)
	return out, len(out)
}

// closeSection writes the length of the body that starts at at in front of
// it, moving the body down over the room the shortest prefix leaves.
func closeSection(out []byte, at int) []byte {
	var buf [sectionRoom]byte
	p := at - sectionRoom
	p += copy(out[p:], AppendUleb(buf[:0], uint64(len(out)-at)))
	return out[:p+copy(out[p:], out[at:])]
}

func appendName(out []byte, s string) []byte {
	out = AppendUleb(out, uint64(len(s)))
	return append(out, s...)
}

func appendLimits(out []byte, l Limits) []byte {
	if l.HasMax {
		out = append(out, 0x01)
		out = AppendUleb(out, uint64(l.Min))
		return AppendUleb(out, uint64(l.Max))
	}
	out = append(out, 0x00)
	return AppendUleb(out, uint64(l.Min))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
