package wasm

import (
	"errors"
	"fmt"
)

// Validate type-checks the module according to the WebAssembly validation
// algorithm (the stack-polymorphic algorithm from the spec appendix). The
// execution tiers rely on validation having succeeded: they omit dynamic type
// and structure checks.
func Validate(m *Module) error {
	for i, im := range m.Imports {
		if im.Kind == ExternFunc && int(im.Type) >= len(m.Types) {
			return fmt.Errorf("wasm: import %d: type index %d out of range", i, im.Type)
		}
		if im.Kind == ExternMemory {
			if err := checkMemory(im.Mem); err != nil {
				return fmt.Errorf("wasm: import %d: %w", i, err)
			}
		}
	}
	if m.HasMemory {
		if err := checkMemory(m.Memory); err != nil {
			return fmt.Errorf("wasm: memory: %w", err)
		}
	}
	numFuncs := uint32(m.NumImportedFuncs() + len(m.Funcs))
	for i, e := range m.Exports {
		switch e.Kind {
		case ExternFunc:
			if e.Index >= numFuncs {
				return fmt.Errorf("wasm: export %d: function index %d out of range", i, e.Index)
			}
		case ExternGlobal:
			if int(e.Index) >= len(m.Globals) {
				return fmt.Errorf("wasm: export %d: global index %d out of range", i, e.Index)
			}
		case ExternMemory:
			if e.Index != 0 || !m.hasAnyMemory() {
				return fmt.Errorf("wasm: export %d: no memory to export", i)
			}
		case ExternTable:
			if e.Index != 0 || !m.HasTable {
				return fmt.Errorf("wasm: export %d: no table to export", i)
			}
		}
	}
	for i, seg := range m.Elems {
		for _, fi := range seg.Funcs {
			if fi >= numFuncs {
				return fmt.Errorf("wasm: element segment %d: function index %d out of range", i, fi)
			}
		}
	}
	if m.Start >= 0 {
		ft, err := m.FuncTypeAt(uint32(m.Start))
		if err != nil {
			return err
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return errors.New("wasm: start function must have empty signature")
		}
	}
	v := &validator{m: m}
	for i := range m.Funcs {
		fn := &m.Funcs[i]
		if int(fn.Type) >= len(m.Types) {
			return fmt.Errorf("wasm: function %d: type index out of range", i)
		}
		if err := v.body(fn); err != nil {
			name := fn.Name
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return fmt.Errorf("wasm: function %s: %w", name, err)
		}
	}
	return nil
}

// maxPages is the memory size limit in pages: 4 GiB of 64 KiB pages.
const maxPages = 65536

// checkMemory rejects limits no memory can have: a minimum above the
// maximum, or either above maxPages.
func checkMemory(l Limits) error {
	if l.Min > maxPages || l.HasMax && l.Max > maxPages {
		return fmt.Errorf("limits exceed %d pages", maxPages)
	}
	if l.HasMax && l.Min > l.Max {
		return fmt.Errorf("minimum %d exceeds maximum %d", l.Min, l.Max)
	}
	return nil
}

func (m *Module) hasAnyMemory() bool {
	if m.HasMemory {
		return true
	}
	for _, im := range m.Imports {
		if im.Kind == ExternMemory {
			return true
		}
	}
	return false
}

// unknownType is the bottom type used for stack-polymorphic checking.
const unknownType ValType = 0

type ctrlFrame struct {
	op          Opcode // OpBlock, OpLoop, OpIf, or OpCall as the function frame marker
	results     []ValType
	height      int
	unreachable bool
}

func (c *ctrlFrame) labelTypes() []ValType {
	if c.op == OpLoop {
		return nil // MVP loops have no parameters
	}
	return c.results
}

type validator struct {
	m      *Module
	locals []ValType
	vals   []ValType
	ctrls  []ctrlFrame
}

// body checks one function body, reading it through the Reader, which
// rejects malformed bytes; the control stack ends empty exactly where the
// Reader stops at the body's final end.
func (v *validator) body(fn *Func) error {
	ft := v.m.Types[fn.Type]
	v.locals = append(append(v.locals[:0], ft.Params...), fn.Locals...)
	v.vals = v.vals[:0]
	v.ctrls = append(v.ctrls[:0], ctrlFrame{op: OpCall, results: ft.Results})
	var in Instr
	r := NewReader(fn.Code)
	for pc := 0; r.Next(&in); pc++ {
		if err := v.instr(&in); err != nil {
			return fmt.Errorf("instr %d (%s): %w", pc, in.Op, err)
		}
	}
	return r.Err()
}

func (v *validator) pushVal(t ValType) { v.vals = append(v.vals, t) }

func (v *validator) pushVals(ts []ValType) {
	for _, t := range ts {
		v.pushVal(t)
	}
}

func (v *validator) popVal() (ValType, error) {
	frame := &v.ctrls[len(v.ctrls)-1]
	if len(v.vals) == frame.height {
		if frame.unreachable {
			return unknownType, nil
		}
		return 0, errors.New("value stack underflow")
	}
	t := v.vals[len(v.vals)-1]
	v.vals = v.vals[:len(v.vals)-1]
	return t, nil
}

func (v *validator) popExpect(want ValType) (ValType, error) {
	got, err := v.popVal()
	if err != nil {
		return 0, err
	}
	if got != want && got != unknownType && want != unknownType {
		return 0, fmt.Errorf("type mismatch: expected %s, got %s", want, got)
	}
	return got, nil
}

func (v *validator) popVals(ts []ValType) error {
	for i := len(ts) - 1; i >= 0; i-- {
		if _, err := v.popExpect(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) pushCtrl(op Opcode, results []ValType) {
	v.ctrls = append(v.ctrls, ctrlFrame{op: op, results: results, height: len(v.vals)})
}

func (v *validator) popCtrl() (ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return ctrlFrame{}, errors.New("control stack underflow")
	}
	frame := v.ctrls[len(v.ctrls)-1]
	if err := v.popVals(frame.results); err != nil {
		return ctrlFrame{}, err
	}
	if len(v.vals) != frame.height {
		return ctrlFrame{}, errors.New("values remain on stack at end of block")
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	return frame, nil
}

func (v *validator) unreachable() {
	frame := &v.ctrls[len(v.ctrls)-1]
	v.vals = v.vals[:frame.height]
	frame.unreachable = true
}

func (v *validator) frameAt(depth uint64) (*ctrlFrame, error) {
	if depth >= uint64(len(v.ctrls)) {
		return nil, fmt.Errorf("branch depth %d out of range", depth)
	}
	return &v.ctrls[len(v.ctrls)-1-int(depth)], nil
}

func (v *validator) localType(idx uint64) (ValType, error) {
	if idx >= uint64(len(v.locals)) {
		return 0, fmt.Errorf("local index %d out of range", idx)
	}
	return v.locals[idx], nil
}

func (v *validator) globalType(idx uint64) (GlobalType, error) {
	if idx >= uint64(len(v.m.Globals)) {
		return GlobalType{}, fmt.Errorf("global index %d out of range", idx)
	}
	return v.m.Globals[idx].Type, nil
}

func (v *validator) instr(in *Instr) error {
	// Fixed-signature instructions are driven by the opcode table.
	if s := opTable[in.Op].sig; s != (sig{}) {
		if err := v.popVals(s.in[:s.n]); err != nil {
			return err
		}
		if s.out != 0 {
			v.pushVal(s.out)
		}
		return nil
	}
	switch in.Op {
	case OpNop:
	case OpUnreachable:
		v.unreachable()
	case OpBlock, OpLoop:
		v.pushCtrl(in.Op, BlockType(in.A).Results())
	case OpIf:
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		v.pushCtrl(OpIf, BlockType(in.A).Results())
	case OpElse:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.op != OpIf {
			return errors.New("else without if")
		}
		v.pushCtrl(OpElse, frame.results)
	case OpEnd:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.op == OpIf && len(frame.results) != 0 {
			return errors.New("if with result type requires an else arm")
		}
		v.pushVals(frame.results)
	case OpBr:
		frame, err := v.frameAt(in.A)
		if err != nil {
			return err
		}
		if err := v.popVals(frame.labelTypes()); err != nil {
			return err
		}
		v.unreachable()
	case OpBrIf:
		frame, err := v.frameAt(in.A)
		if err != nil {
			return err
		}
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		lt := frame.labelTypes()
		if err := v.popVals(lt); err != nil {
			return err
		}
		v.pushVals(lt)
	case OpBrTable:
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		def, err := v.frameAt(in.A)
		if err != nil {
			return err
		}
		arity := len(def.labelTypes())
		for _, t := range in.Table {
			frame, err := v.frameAt(uint64(t))
			if err != nil {
				return err
			}
			if len(frame.labelTypes()) != arity {
				return errors.New("br_table label arity mismatch")
			}
		}
		if err := v.popVals(def.labelTypes()); err != nil {
			return err
		}
		v.unreachable()
	case OpReturn:
		if err := v.popVals(v.ctrls[0].results); err != nil {
			return err
		}
		v.unreachable()
	case OpCall:
		ft, err := v.m.FuncTypeAt(uint32(in.A))
		if err != nil {
			return err
		}
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)
	case OpCallIndirect:
		if !v.m.HasTable && !v.hasImportedTable() {
			return errors.New("call_indirect without table")
		}
		if int(in.A) >= len(v.m.Types) {
			return fmt.Errorf("type index %d out of range", in.A)
		}
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		ft := v.m.Types[in.A]
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)
	case OpDrop:
		if _, err := v.popVal(); err != nil {
			return err
		}
	case OpSelect:
		if _, err := v.popExpect(I32); err != nil {
			return err
		}
		t1, err := v.popVal()
		if err != nil {
			return err
		}
		t2, err := v.popVal()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return errors.New("select operands differ in type")
		}
		if t1 == unknownType {
			v.pushVal(t2)
		} else {
			v.pushVal(t1)
		}
	case OpLocalGet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		v.pushVal(t)
	case OpLocalSet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		if _, err := v.popExpect(t); err != nil {
			return err
		}
	case OpLocalTee:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		if _, err := v.popExpect(t); err != nil {
			return err
		}
		v.pushVal(t)
	case OpGlobalGet:
		gt, err := v.globalType(in.A)
		if err != nil {
			return err
		}
		v.pushVal(gt.Type)
	case OpGlobalSet:
		gt, err := v.globalType(in.A)
		if err != nil {
			return err
		}
		if !gt.Mutable {
			return fmt.Errorf("global %d is immutable", in.A)
		}
		if _, err := v.popExpect(gt.Type); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}

func (v *validator) hasImportedTable() bool {
	for _, im := range v.m.Imports {
		if im.Kind == ExternTable {
			return true
		}
	}
	return false
}
