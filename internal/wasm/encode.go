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

// Encode serializes the module into the WebAssembly binary format.
func Encode(m *Module) []byte {
	out := append([]byte(nil), magic...)

	// Type section.
	if len(m.Types) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Types)))
		for _, t := range m.Types {
			body = append(body, 0x60)
			body = AppendUleb(body, uint64(len(t.Params)))
			for _, p := range t.Params {
				body = append(body, byte(p))
			}
			body = AppendUleb(body, uint64(len(t.Results)))
			for _, r := range t.Results {
				body = append(body, byte(r))
			}
		}
		out = appendSection(out, secType, body)
	}

	// Import section.
	if len(m.Imports) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Imports)))
		for _, im := range m.Imports {
			body = appendName(body, im.Module)
			body = appendName(body, im.Name)
			body = append(body, byte(im.Kind))
			switch im.Kind {
			case ExternFunc:
				body = AppendUleb(body, uint64(im.Type))
			case ExternMemory:
				body = appendLimits(body, im.Mem)
			case ExternGlobal:
				body = append(body, byte(im.Global.Type), boolByte(im.Global.Mutable))
			case ExternTable:
				body = append(body, 0x70) // funcref
				body = appendLimits(body, im.Table)
			}
		}
		out = appendSection(out, secImport, body)
	}

	// Function section.
	if len(m.Funcs) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			body = AppendUleb(body, uint64(f.Type))
		}
		out = appendSection(out, secFunction, body)
	}

	// Table section.
	if m.HasTable {
		var body []byte
		body = AppendUleb(body, 1)
		body = append(body, 0x70) // funcref
		body = appendLimits(body, Limits{Min: m.TableMin})
		out = appendSection(out, secTable, body)
	}

	// Memory section.
	if m.HasMemory {
		var body []byte
		body = AppendUleb(body, 1)
		body = appendLimits(body, m.Memory)
		out = appendSection(out, secMemory, body)
	}

	// Global section.
	if len(m.Globals) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Globals)))
		for _, g := range m.Globals {
			body = append(body, byte(g.Type.Type), boolByte(g.Type.Mutable))
			switch g.Type.Type {
			case I32:
				body = append(body, byte(OpI32Const))
				body = AppendSleb(body, int64(int32(uint32(g.Init))))
			case I64:
				body = append(body, byte(OpI64Const))
				body = AppendSleb(body, int64(g.Init))
			case F32:
				body = append(body, byte(OpF32Const))
				body = binary.LittleEndian.AppendUint32(body, uint32(g.Init))
			case F64:
				body = append(body, byte(OpF64Const))
				body = binary.LittleEndian.AppendUint64(body, g.Init)
			}
			body = append(body, byte(OpEnd))
		}
		out = appendSection(out, secGlobal, body)
	}

	// Export section.
	if len(m.Exports) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Exports)))
		for _, e := range m.Exports {
			body = appendName(body, e.Name)
			body = append(body, byte(e.Kind))
			body = AppendUleb(body, uint64(e.Index))
		}
		out = appendSection(out, secExport, body)
	}

	// Start section.
	if m.Start >= 0 {
		var body []byte
		body = AppendUleb(body, uint64(m.Start))
		out = appendSection(out, secStart, body)
	}

	// Element section.
	if len(m.Elems) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Elems)))
		for _, e := range m.Elems {
			body = AppendUleb(body, 0) // active, table 0
			body = append(body, byte(OpI32Const))
			body = AppendSleb(body, int64(int32(e.Offset)))
			body = append(body, byte(OpEnd))
			body = AppendUleb(body, uint64(len(e.Funcs)))
			for _, fi := range e.Funcs {
				body = AppendUleb(body, uint64(fi))
			}
		}
		out = appendSection(out, secElem, body)
	}

	// Code section.
	if len(m.Funcs) > 0 {
		var body, locals []byte
		body = AppendUleb(body, uint64(len(m.Funcs)))
		for i := range m.Funcs {
			f := &m.Funcs[i]
			locals = appendLocals(locals[:0], f.Locals)
			body = AppendUleb(body, uint64(len(locals)+len(f.Code)))
			body = append(append(body, locals...), f.Code...)
		}
		out = appendSection(out, secCode, body)
	}

	// Data section.
	if len(m.Data) > 0 {
		var body []byte
		body = AppendUleb(body, uint64(len(m.Data)))
		for _, d := range m.Data {
			body = AppendUleb(body, 0) // active, memory 0
			body = append(body, byte(OpI32Const))
			body = AppendSleb(body, int64(int32(d.Offset)))
			body = append(body, byte(OpEnd))
			body = AppendUleb(body, uint64(len(d.Bytes)))
			body = append(body, d.Bytes...)
		}
		out = appendSection(out, secData, body)
	}

	// Name section (function names only), for debuggability.
	if hasNames(m) {
		var names []byte
		names = appendName(names, "name")
		var sub []byte
		n := 0
		for i := range m.Funcs {
			if m.Funcs[i].Name != "" {
				n++
			}
		}
		sub = AppendUleb(sub, uint64(n))
		base := uint64(m.NumImportedFuncs())
		for i := range m.Funcs {
			if m.Funcs[i].Name == "" {
				continue
			}
			sub = AppendUleb(sub, base+uint64(i))
			sub = appendName(sub, m.Funcs[i].Name)
		}
		names = append(names, 1) // function names subsection
		names = AppendUleb(names, uint64(len(sub)))
		names = append(names, sub...)
		out = appendSection(out, secCustom, names)
	}

	return out
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

func appendSection(out []byte, id byte, body []byte) []byte {
	out = append(out, id)
	out = AppendUleb(out, uint64(len(body)))
	return append(out, body...)
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
