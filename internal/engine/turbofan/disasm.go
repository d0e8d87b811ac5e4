package turbofan

import (
	"fmt"
	"strings"
)

// NumInstrs returns the number of instructions emitted for the function.
func (c *Code) NumInstrs() int { return len(c.ins) }

// String disassembles the function: a header line, then one line per
// instruction with its pc, its name from the ops table and its operands
// rendered according to the op's shape. Registers print as rN (locals first,
// then operand-stack slots), branch targets as @pc, literals in decimal.
func (c *Code) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %q: %d params, %d locals, %d stack slots, %d instructions\n",
		c.Name, c.NParams, c.NLocals, c.MaxStack, len(c.ins))
	for pc := range c.ins {
		t := &c.ins[pc]
		fmt.Fprintf(&b, "%4d  %-18s %s\n", pc, ops[t.op].name, c.operands(t))
	}
	return b.String()
}

func (c *Code) operands(t *tin) string {
	switch ops[t.op].kind {
	case kindBin:
		return fmt.Sprintf("r%d ← r%d, r%d", t.d, t.a, t.b)
	case kindBinImm:
		imm := int64(t.imm)
		if strings.HasPrefix(ops[t.op].name, "i32.") {
			imm = int64(int32(t.imm)) // i32 constants are held zero-extended
		}
		return fmt.Sprintf("r%d ← r%d, %d", t.d, t.a, imm)
	case kindUn, kindMove, kindMemoryGrow:
		return fmt.Sprintf("r%d ← r%d", t.d, t.a)
	case kindConst:
		return fmt.Sprintf("r%d ← %d", t.d, int64(t.imm))
	case kindLoad:
		return fmt.Sprintf("r%d ← [r%d + %d]", t.d, t.a, t.imm)
	case kindLoadScaled:
		return fmt.Sprintf("r%d ← [r%d<<%d + %d]", t.d, t.a, t.b, t.imm)
	case kindLoadIndexed:
		return fmt.Sprintf("r%d ← [r%d + r%d + %d]", t.d, t.a, t.b, t.imm)
	case kindStore:
		return fmt.Sprintf("[r%d + %d] ← r%d", t.a, t.imm, t.b)
	case kindMemOp:
		return fmt.Sprintf("[r%d + %d] += r%d", t.a, t.imm, t.b)
	case kindMemOpImm:
		return fmt.Sprintf("[r%d + %d] += %d", t.a, t.imm, t.b)
	case kindSelect:
		return fmt.Sprintf("r%d ← r%d ? r%d : r%d", t.d, t.imm, t.a, t.b)
	case kindSelectImm:
		return fmt.Sprintf("r%d ← r%d ? r%d : %d", t.d, t.imm, t.a, uint32(t.b))
	case kindGlobalGet:
		return fmt.Sprintf("r%d ← g%d", t.d, t.imm)
	case kindGlobalSet:
		return fmt.Sprintf("g%d ← r%d", t.imm, t.a)
	case kindMemorySize:
		return fmt.Sprintf("r%d", t.d)
	case kindJump:
		return fmt.Sprintf("@%d", t.imm)
	case kindBrIf:
		return fmt.Sprintf("r%d → @%d", t.a, t.imm)
	case kindBrCmp:
		return fmt.Sprintf("r%d, r%d → @%d", t.a, t.b, t.imm)
	case kindBrCmpImm:
		return fmt.Sprintf("r%d, %d → @%d", t.a, t.b, t.imm)
	case kindBrTable:
		targets := make([]string, len(c.tables[t.imm]))
		for i, pc := range c.tables[t.imm] {
			targets[i] = fmt.Sprintf("@%d", pc)
		}
		return fmt.Sprintf("r%d → %s", t.a, strings.Join(targets, " "))
	case kindCall:
		return fmt.Sprintf("f%d r%d, %d args, %d results", t.imm, t.a, t.b>>16, t.b&0xFFFF)
	case kindCallIndirect:
		return fmt.Sprintf("type %d r%d, %d args, %d results, index r%d", t.imm, t.a, t.b>>16, t.b&0xFFFF, t.a+t.b>>16)
	}
	return ""
}
