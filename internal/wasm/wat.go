package wasm

import (
	"fmt"
	"math"
	"strings"
)

// Print renders the module in a WAT-like text format, primarily for
// debugging and for the examples/adhoc demo that dumps the Wasm generated
// for a query. The output is close to canonical WAT but not guaranteed to be
// round-trippable.
func Print(m *Module) string {
	var b strings.Builder
	b.WriteString("(module\n")
	for i, t := range m.Types {
		fmt.Fprintf(&b, "  (type (;%d;) %s)\n", i, t)
	}
	for _, im := range m.Imports {
		switch im.Kind {
		case ExternFunc:
			fmt.Fprintf(&b, "  (import %q %q %s)\n", im.Module, im.Name, m.Types[im.Type])
		case ExternMemory:
			fmt.Fprintf(&b, "  (import %q %q (memory %d", im.Module, im.Name, im.Mem.Min)
			if im.Mem.HasMax {
				fmt.Fprintf(&b, " %d", im.Mem.Max)
			}
			b.WriteString("))\n")
		case ExternGlobal:
			fmt.Fprintf(&b, "  (import %q %q (global %s))\n", im.Module, im.Name, im.Global.Type)
		case ExternTable:
			fmt.Fprintf(&b, "  (import %q %q (table %d funcref))\n", im.Module, im.Name, im.Table.Min)
		}
	}
	if m.HasMemory {
		fmt.Fprintf(&b, "  (memory %d", m.Memory.Min)
		if m.Memory.HasMax {
			fmt.Fprintf(&b, " %d", m.Memory.Max)
		}
		b.WriteString(")\n")
	}
	if m.HasTable {
		fmt.Fprintf(&b, "  (table %d funcref)\n", m.TableMin)
	}
	for i, g := range m.Globals {
		mut := g.Type.Type.String()
		if g.Type.Mutable {
			mut = "(mut " + mut + ")"
		}
		fmt.Fprintf(&b, "  (global (;%d;) %s %s)\n", i, mut, constString(g.Type.Type, g.Init))
	}
	base := m.NumImportedFuncs()
	for i := range m.Funcs {
		printFunc(&b, m, base+i, &m.Funcs[i])
	}
	for _, e := range m.Exports {
		fmt.Fprintf(&b, "  (export %q (%s %d))\n", e.Name, e.Kind, e.Index)
	}
	for _, d := range m.Data {
		fmt.Fprintf(&b, "  (data (i32.const %d) ;; %d bytes\n  )\n", d.Offset, len(d.Bytes))
	}
	b.WriteString(")\n")
	return b.String()
}

func constString(t ValType, bits uint64) string {
	switch t {
	case I32:
		return fmt.Sprintf("(i32.const %d)", int32(uint32(bits)))
	case I64:
		return fmt.Sprintf("(i64.const %d)", int64(bits))
	case F32:
		return fmt.Sprintf("(f32.const %v)", math.Float32frombits(uint32(bits)))
	case F64:
		return fmt.Sprintf("(f64.const %v)", math.Float64frombits(bits))
	}
	return "?"
}

func printFunc(b *strings.Builder, m *Module, idx int, f *Func) {
	ft := m.Types[f.Type]
	fmt.Fprintf(b, "  (func (;%d;)", idx)
	if f.Name != "" {
		fmt.Fprintf(b, " $%s", f.Name)
	}
	for _, p := range ft.Params {
		fmt.Fprintf(b, " (param %s)", p)
	}
	for _, r := range ft.Results {
		fmt.Fprintf(b, " (result %s)", r)
	}
	b.WriteString("\n")
	if len(f.Locals) > 0 {
		b.WriteString("    (local")
		for _, l := range f.Locals {
			b.WriteString(" " + l.String())
		}
		b.WriteString(")\n")
	}
	indent := 2
	var in Instr
	r := NewReader(f.Code)
	for r.Next(&in) {
		if in.Op == OpEnd && indent == 2 {
			break // the function's closing end is implicit
		}
		switch in.Op {
		case OpEnd, OpElse:
			indent--
		}
		b.WriteString(strings.Repeat("  ", indent+1))
		b.WriteString(instrString(&in))
		b.WriteString("\n")
		switch in.Op {
		case OpBlock, OpLoop, OpIf, OpElse:
			indent++
		}
	}
	if err := r.Err(); err != nil {
		fmt.Fprintf(b, "    ;; malformed body: %v\n", err)
	}
	b.WriteString("  )\n")
}

func instrString(in *Instr) string {
	switch in.Op.Imm() {
	case ImmNone:
		return in.Op.String()
	case ImmBlockType:
		return in.Op.String() + BlockType(in.A).String()
	case ImmLabel, ImmFuncIdx, ImmLocalIdx, ImmGlobalIdx:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	case ImmBrTable:
		s := in.Op.String()
		for _, t := range in.Table {
			s += fmt.Sprintf(" %d", t)
		}
		return s + fmt.Sprintf(" %d", in.A)
	case ImmTypeIdx:
		return fmt.Sprintf("%s (type %d)", in.Op, in.A)
	case ImmMemArg:
		if in.A == 0 {
			return in.Op.String()
		}
		return fmt.Sprintf("%s offset=%d", in.Op, in.A)
	case ImmMemIdx:
		return in.Op.String()
	case ImmI32:
		return fmt.Sprintf("%s %d", in.Op, int32(uint32(in.A)))
	case ImmI64:
		return fmt.Sprintf("%s %d", in.Op, int64(in.A))
	case ImmF32:
		return fmt.Sprintf("%s %v", in.Op, math.Float32frombits(uint32(in.A)))
	case ImmF64:
		return fmt.Sprintf("%s %v", in.Op, math.Float64frombits(in.A))
	}
	return in.Op.String()
}
