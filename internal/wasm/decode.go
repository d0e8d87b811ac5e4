package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode parses a binary WebAssembly module. It accepts the subset of the
// core MVP emitted by this package (one memory, one funcref table, active
// segments, constant initializers) and rejects everything else with an error.
//
// The module's function bodies (Func.Code) are slices of buf, not copies:
// the caller must not write buf while the Module is in use. The engine's
// input, a CompiledQuery's Bin, is never written after code generation.
func Decode(buf []byte) (*Module, error) {
	d := &decoder{buf: buf}
	return d.module(false)
}

// DecodeNamed is Decode that also reads the function names of the "name"
// custom section into Func.Name, for Print. Decode skips that section: no
// compiler reads a name.
func DecodeNamed(buf []byte) (*Module, error) {
	d := &decoder{buf: buf}
	return d.module(true)
}

type decoder struct {
	buf []byte
	pos int
}

var errUnexpectedEOF = errors.New("wasm: unexpected end of module")

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, errUnexpectedEOF
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, errUnexpectedEOF
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) uleb(maxBits uint) (uint64, error) {
	v, n, err := ReadUleb(d.buf[d.pos:], maxBits)
	if err != nil {
		return 0, err
	}
	d.pos += n
	return v, nil
}

func (d *decoder) sleb(maxBits uint) (int64, error) {
	v, n, err := ReadSleb(d.buf[d.pos:], maxBits)
	if err != nil {
		return 0, err
	}
	d.pos += n
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	v, err := d.uleb(32)
	return uint32(v), err
}

// zero reads a reserved byte that must be zero.
func (d *decoder) zero(msg string) error {
	b, err := d.byte()
	if err == nil && b != 0 {
		err = errors.New(msg)
	}
	return err
}

func (d *decoder) name() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *decoder) limits() (Limits, error) {
	flag, err := d.byte()
	if err != nil {
		return Limits{}, err
	}
	var l Limits
	l.Min, err = d.u32()
	if err != nil {
		return Limits{}, err
	}
	switch flag {
	case 0x00:
	case 0x01:
		l.HasMax = true
		l.Max, err = d.u32()
		if err != nil {
			return Limits{}, err
		}
	default:
		return Limits{}, fmt.Errorf("wasm: invalid limits flag 0x%02x", flag)
	}
	return l, nil
}

func (d *decoder) valType() (ValType, error) {
	b, err := d.byte()
	if err != nil {
		return 0, err
	}
	t := ValType(b)
	if !t.Valid() {
		return 0, fmt.Errorf("wasm: invalid value type 0x%02x", b)
	}
	return t, nil
}

// constExpr decodes a constant initializer expression and returns the raw
// value bits.
func (d *decoder) constExpr(want ValType) (uint64, error) {
	op, err := d.byte()
	if err != nil {
		return 0, err
	}
	var v uint64
	switch Opcode(op) {
	case OpI32Const:
		if want != I32 {
			return 0, fmt.Errorf("wasm: initializer type mismatch")
		}
		x, err := d.sleb(32)
		if err != nil {
			return 0, err
		}
		v = uint64(uint32(int32(x)))
	case OpI64Const:
		if want != I64 {
			return 0, fmt.Errorf("wasm: initializer type mismatch")
		}
		x, err := d.sleb(64)
		if err != nil {
			return 0, err
		}
		v = uint64(x)
	case OpF32Const:
		if want != F32 {
			return 0, fmt.Errorf("wasm: initializer type mismatch")
		}
		b, err := d.take(4)
		if err != nil {
			return 0, err
		}
		v = uint64(binary.LittleEndian.Uint32(b))
	case OpF64Const:
		if want != F64 {
			return 0, fmt.Errorf("wasm: initializer type mismatch")
		}
		b, err := d.take(8)
		if err != nil {
			return 0, err
		}
		v = binary.LittleEndian.Uint64(b)
	default:
		return 0, fmt.Errorf("wasm: unsupported initializer opcode 0x%02x", op)
	}
	end, err := d.byte()
	if err != nil {
		return 0, err
	}
	if Opcode(end) != OpEnd {
		return 0, fmt.Errorf("wasm: initializer not terminated by end")
	}
	return v, nil
}

func (d *decoder) module(withNames bool) (*Module, error) {
	hdr, err := d.take(8)
	if err != nil {
		return nil, err
	}
	for i, b := range magic {
		if hdr[i] != b {
			return nil, errors.New("wasm: bad magic or version")
		}
	}
	m := &Module{Start: -1}
	var funcTypes []uint32
	var names *decoder // the "name" custom section, read once Funcs exist
	lastSec := -1
	for d.remaining() > 0 {
		id, err := d.byte()
		if err != nil {
			return nil, err
		}
		size, err := d.u32()
		if err != nil {
			return nil, err
		}
		body, err := d.take(int(size))
		if err != nil {
			return nil, err
		}
		if id != secCustom {
			if int(id) <= lastSec {
				return nil, fmt.Errorf("wasm: section %d out of order", id)
			}
			lastSec = int(id)
		}
		sd := &decoder{buf: body}
		switch id {
		case secCustom:
			// Skipped (names are debug-only) unless printing asked for them.
			if withNames {
				if n, err := sd.name(); err == nil && n == "name" {
					names = &decoder{buf: sd.buf[sd.pos:]}
				}
			}
		case secType:
			if err := sd.typeSection(m); err != nil {
				return nil, err
			}
		case secImport:
			if err := sd.importSection(m); err != nil {
				return nil, err
			}
		case secFunction:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			for i := uint32(0); i < n; i++ {
				ti, err := sd.u32()
				if err != nil {
					return nil, err
				}
				funcTypes = append(funcTypes, ti)
			}
		case secTable:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			if n > 1 {
				return nil, errors.New("wasm: at most one table supported")
			}
			if n == 1 {
				et, err := sd.byte()
				if err != nil {
					return nil, err
				}
				if et != 0x70 {
					return nil, errors.New("wasm: only funcref tables supported")
				}
				l, err := sd.limits()
				if err != nil {
					return nil, err
				}
				m.HasTable = true
				m.TableMin = l.Min
			}
		case secMemory:
			n, err := sd.u32()
			if err != nil {
				return nil, err
			}
			if n > 1 {
				return nil, errors.New("wasm: at most one memory supported")
			}
			if n == 1 {
				l, err := sd.limits()
				if err != nil {
					return nil, err
				}
				m.Memory = l
				m.HasMemory = true
			}
		case secGlobal:
			if err := sd.globalSection(m); err != nil {
				return nil, err
			}
		case secExport:
			if err := sd.exportSection(m); err != nil {
				return nil, err
			}
		case secStart:
			s, err := sd.u32()
			if err != nil {
				return nil, err
			}
			m.Start = int32(s)
		case secElem:
			if err := sd.elemSection(m); err != nil {
				return nil, err
			}
		case secCode:
			// Bodies stay slices of the caller's buffer (see Decode).
			if err := sd.codeSection(m, funcTypes); err != nil {
				return nil, err
			}
		case secData:
			if err := sd.dataSection(m); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wasm: unknown section id %d", id)
		}
		if id != secCustom && sd.remaining() != 0 {
			return nil, fmt.Errorf("wasm: section %d: %d bytes past its content", id, sd.remaining())
		}
	}
	if len(funcTypes) != len(m.Funcs) {
		return nil, fmt.Errorf("wasm: function section declares %d functions, code section has %d", len(funcTypes), len(m.Funcs))
	}
	if names != nil {
		if err := names.funcNames(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// funcNames reads the subsections of a "name" custom section and sets the
// names its function-names subsection (id 1) gives; the others are skipped.
func (d *decoder) funcNames(m *Module) error {
	base := uint32(m.NumImportedFuncs())
	for d.remaining() > 0 {
		id, err := d.byte()
		if err != nil {
			return err
		}
		size, err := d.u32()
		if err != nil {
			return err
		}
		body, err := d.take(int(size))
		if err != nil {
			return err
		}
		if id != 1 {
			continue
		}
		sd := &decoder{buf: body}
		n, err := sd.u32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			idx, err := sd.u32()
			if err != nil {
				return err
			}
			name, err := sd.name()
			if err != nil {
				return err
			}
			if idx < base || idx-base >= uint32(len(m.Funcs)) {
				return fmt.Errorf("wasm: name section names function %d of %d", idx, int(base)+len(m.Funcs))
			}
			m.Funcs[idx-base].Name = name
		}
	}
	return nil
}

func (d *decoder) typeSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		form, err := d.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("wasm: invalid func type form 0x%02x", form)
		}
		var ft FuncType
		np, err := d.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < np; j++ {
			t, err := d.valType()
			if err != nil {
				return err
			}
			ft.Params = append(ft.Params, t)
		}
		nr, err := d.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nr; j++ {
			t, err := d.valType()
			if err != nil {
				return err
			}
			ft.Results = append(ft.Results, t)
		}
		m.Types = append(m.Types, ft)
	}
	return nil
}

func (d *decoder) importSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var im Import
		if im.Module, err = d.name(); err != nil {
			return err
		}
		if im.Name, err = d.name(); err != nil {
			return err
		}
		kind, err := d.byte()
		if err != nil {
			return err
		}
		im.Kind = ExternKind(kind)
		switch im.Kind {
		case ExternFunc:
			if im.Type, err = d.u32(); err != nil {
				return err
			}
		case ExternMemory:
			if im.Mem, err = d.limits(); err != nil {
				return err
			}
		case ExternGlobal:
			t, err := d.valType()
			if err != nil {
				return err
			}
			mut, err := d.byte()
			if err != nil {
				return err
			}
			im.Global = GlobalType{Type: t, Mutable: mut == 1}
		case ExternTable:
			et, err := d.byte()
			if err != nil {
				return err
			}
			if et != 0x70 {
				return errors.New("wasm: only funcref tables supported")
			}
			if im.Table, err = d.limits(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wasm: invalid import kind 0x%02x", kind)
		}
		m.Imports = append(m.Imports, im)
	}
	return nil
}

func (d *decoder) globalSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Every entry takes at least one byte, so the section's size bounds what
	// a hostile count can make this reserve.
	m.Globals = make([]Global, 0, min(int(n), d.remaining()))
	for i := uint32(0); i < n; i++ {
		t, err := d.valType()
		if err != nil {
			return err
		}
		mut, err := d.byte()
		if err != nil {
			return err
		}
		init, err := d.constExpr(t)
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, Global{Type: GlobalType{Type: t, Mutable: mut == 1}, Init: init})
	}
	return nil
}

func (d *decoder) exportSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Every entry takes at least one byte, so the section's size bounds what
	// a hostile count can make this reserve.
	m.Exports = make([]Export, 0, min(int(n), d.remaining()))
	seen := make(map[string]bool, cap(m.Exports))
	for i := uint32(0); i < n; i++ {
		var e Export
		if e.Name, err = d.name(); err != nil {
			return err
		}
		if seen[e.Name] {
			return fmt.Errorf("wasm: duplicate export %q", e.Name)
		}
		seen[e.Name] = true
		kind, err := d.byte()
		if err != nil {
			return err
		}
		e.Kind = ExternKind(kind)
		if e.Index, err = d.u32(); err != nil {
			return err
		}
		m.Exports = append(m.Exports, e)
	}
	return nil
}

func (d *decoder) elemSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		flag, err := d.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return errors.New("wasm: only active element segments for table 0 supported")
		}
		off, err := d.constExpr(I32)
		if err != nil {
			return err
		}
		cnt, err := d.u32()
		if err != nil {
			return err
		}
		seg := ElemSegment{Offset: uint32(off)}
		for j := uint32(0); j < cnt; j++ {
			fi, err := d.u32()
			if err != nil {
				return err
			}
			seg.Funcs = append(seg.Funcs, fi)
		}
		m.Elems = append(m.Elems, seg)
	}
	return nil
}

func (d *decoder) dataSection(m *Module) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		flag, err := d.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return errors.New("wasm: only active data segments for memory 0 supported")
		}
		off, err := d.constExpr(I32)
		if err != nil {
			return err
		}
		cnt, err := d.u32()
		if err != nil {
			return err
		}
		b, err := d.take(int(cnt))
		if err != nil {
			return err
		}
		m.Data = append(m.Data, DataSegment{Offset: uint32(off), Bytes: append([]byte(nil), b...)})
	}
	return nil
}

func (d *decoder) codeSection(m *Module, funcTypes []uint32) error {
	n, err := d.u32()
	if err != nil {
		return err
	}
	if int(n) != len(funcTypes) {
		return fmt.Errorf("wasm: code count %d does not match function count %d", n, len(funcTypes))
	}
	m.Funcs = make([]Func, 0, n)
	for i := uint32(0); i < n; i++ {
		size, err := d.u32()
		if err != nil {
			return err
		}
		body, err := d.take(int(size))
		if err != nil {
			return err
		}
		fn := Func{Type: funcTypes[i]}
		bd := &decoder{buf: body}
		nRuns, err := bd.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nRuns; j++ {
			cnt, err := bd.u32()
			if err != nil {
				return err
			}
			t, err := bd.valType()
			if err != nil {
				return err
			}
			if len(fn.Locals)+int(cnt) > 1<<20 {
				return errors.New("wasm: too many locals")
			}
			for k := uint32(0); k < cnt; k++ {
				fn.Locals = append(fn.Locals, t)
			}
		}
		fn.Code = body[bd.pos:len(body):len(body)]
		m.Funcs = append(m.Funcs, fn)
	}
	return nil
}

// Reader reads a function body's instructions (Func.Code) one at a time. It
// is the package's one instruction decoder: Validate, Print and the engine's
// compilers all read bodies through it. It checks the encoding only — known
// opcodes, block types, zero table and memory bytes, LEB128 widths, the final
// end and nothing after it — and never panics: on a malformed body Next
// returns false and Err says why.
type Reader struct {
	d     decoder
	depth int // open blocks; -1 once the final end has been read
	err   error
	table []uint32
}

// NewReader returns a reader over a function body's instruction bytes.
func NewReader(code []byte) *Reader { return &Reader{d: decoder{buf: code}} }

// Err returns the error that stopped Next, or nil once the body has been read
// through its final end.
func (r *Reader) Err() error { return r.err }

// Next decodes the next instruction into in and reports whether there was
// one: false after the end that closes the body, or at a malformed
// instruction. in.Table is overwritten by the next call.
func (r *Reader) Next(in *Instr) bool {
	if r.depth < 0 || r.err != nil {
		return false
	}
	at := r.d.pos
	if err := r.read(in); err != nil {
		r.err = fmt.Errorf("byte %d: %w", at, err)
		return false
	}
	return true
}

func (r *Reader) read(in *Instr) error {
	d := &r.d
	opb, err := d.byte()
	if err != nil {
		return errors.New("missing end")
	}
	op := Opcode(opb)
	if !op.Known() {
		return fmt.Errorf("unknown opcode 0x%02x", opb)
	}
	*in = Instr{Op: op}
	var v, align uint32
	var x int64
	var b []byte
	switch op.Imm() {
	case ImmBlockType:
		var bt byte
		if bt, err = d.byte(); err == nil && BlockType(bt) != BlockVoid && !ValType(bt).Valid() {
			err = fmt.Errorf("invalid block type 0x%02x", bt)
		}
		in.A = uint64(bt)
	case ImmLabel, ImmFuncIdx, ImmLocalIdx, ImmGlobalIdx:
		v, err = d.u32()
		in.A = uint64(v)
	case ImmBrTable:
		var cnt uint32
		if cnt, err = d.u32(); err == nil && int(cnt) > d.remaining() {
			err = errUnexpectedEOF
		}
		r.table = r.table[:0]
		for j := uint32(0); j < cnt && err == nil; j++ {
			v, err = d.u32()
			r.table = append(r.table, v)
		}
		if err == nil {
			v, err = d.u32()
		}
		in.A, in.Table = uint64(v), r.table
	case ImmTypeIdx:
		if v, err = d.u32(); err == nil {
			err = d.zero("call_indirect: non-zero table index")
		}
		in.A = uint64(v)
	case ImmMemArg:
		if align, err = d.u32(); err == nil {
			v, err = d.u32()
		}
		in.A, in.B = uint64(v), uint64(align)
	case ImmMemIdx:
		err = d.zero("memory instruction: non-zero memory index")
	case ImmI32:
		x, err = d.sleb(32)
		in.A = uint64(uint32(int32(x)))
	case ImmI64:
		x, err = d.sleb(64)
		in.A = uint64(x)
	case ImmF32:
		if b, err = d.take(4); err == nil {
			in.A = uint64(binary.LittleEndian.Uint32(b))
		}
	case ImmF64:
		if b, err = d.take(8); err == nil {
			in.A = binary.LittleEndian.Uint64(b)
		}
	}
	if err != nil {
		return err
	}
	switch op {
	case OpBlock, OpLoop, OpIf:
		r.depth++
	case OpEnd:
		if r.depth--; r.depth < 0 && d.remaining() != 0 {
			return errors.New("trailing bytes after body")
		}
	}
	return nil
}
