package turbofan

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Update is the -update flag of this package's tests (golden listings, the
// ISA table in DESIGN.md); exported for the external test package.
var Update = flag.Bool("update", false, "rewrite golden files: testdata/*.txt and the ISA table in DESIGN.md")

var shapes = map[opKind]string{
	kindBin: "`d ← a op b`", kindBinImm: "`d ← a op imm`", kindUn: "`d ← op a`", kindConst: "`d ← imm`",
	kindMove: "`d ← a`", kindLoad: "`d ← mem[a + imm]`", kindLoadScaled: "`d ← mem[a<<b + imm]` (b a literal shift)",
	kindLoadIndexed: "`d ← mem[a + b + imm]`", kindStore: "`mem[a + imm] ← b`", kindMemOp: "`mem[a + imm] op= b`",
	kindMemOpImm: "`mem[a + imm] op= literal b`", kindSelect: "`d ← regs[imm] ? a : b`",
	kindSelectImm: "`d ← regs[imm] ? a : literal b`", kindGlobalGet: "`d ← globals[imm]`",
	kindGlobalSet: "`globals[imm] ← a`", kindMemorySize: "`d ← pages`", kindMemoryGrow: "`d ← grow(a)`",
	kindJump: "`goto imm`", kindBrIf: "`if cond(a) goto imm`", kindBrCmp: "`if a cmp b goto imm`",
	kindBrCmpImm: "`if a cmp literal b goto imm`", kindBrTable: "`goto tables[imm][a]`", kindRet: "return",
	kindTrap: "trap", kindCall: "`regs[a…] ← call imm(regs[a…])`", kindCallIndirect: "like call, table index behind the arguments",
	kindNop: "no operands",
}

// optimizerOnly are the operand shapes the baseline compiler never produces:
// they come out of the optimizer's back end or linearization.
var optimizerOnly = map[opKind]bool{kindLoadIndexed: true, kindMemOp: true, kindMemOpImm: true, kindNop: true}

// OutsideBaseline returns the name of the first instruction of c that has an
// optimizer-only shape, or "" — what the ISA table's last column promises of
// baseline code. Exported for the external test package.
func OutsideBaseline(c *Code) string {
	for i := range c.ins {
		if optimizerOnly[ops[c.ins[i].op].kind] {
			return ops[c.ins[i].op].name
		}
	}
	return ""
}

// isaTable renders the ops table as the markdown table of DESIGN.md §5.3:
// one row per run of consecutive opcodes with the same operand shape, and
// which compiler produces it.
func isaTable() string {
	var b strings.Builder
	b.WriteString("| opcodes | operand shape | instructions | produced by |\n|---|---|---|---|\n")
	by := func(k opKind) string {
		if optimizerOnly[k] {
			return "optimizing only"
		}
		return "both"
	}
	row := func(lo, hi int) {
		names := make([]string, 0, hi-lo)
		for op := lo; op < hi; op++ {
			names = append(names, "`"+ops[op].name+"`")
		}
		fmt.Fprintf(&b, "| %#x–%#x | %s | %s | %s |\n", lo, hi-1, shapes[ops[lo].kind], strings.Join(names, " "), by(ops[lo].kind))
	}
	first := 0
	for ops[first].kind == kindNone {
		first++
	}
	fmt.Fprintf(&b, "| %#x–%#x | as in WebAssembly | the %d wasm memory, constant, comparison, numeric and conversion instructions under their wasm opcodes | both |\n",
		first, tMove-1, int(tMove)-first)
	lo := int(tMove)
	for op := lo + 1; op <= int(numOps); op++ {
		if op == int(numOps) || ops[op].kind != ops[lo].kind {
			row(lo, op)
			lo = op
		}
	}
	return b.String()
}

// TestISATableInDesignDoc keeps the ISA table of DESIGN.md generated
// from the ops table: it must equal isaTable() between its two markers.
func TestISATableInDesignDoc(t *testing.T) {
	const path = "../../../DESIGN.md"
	const begin, end = "<!-- tier-2-isa:begin -->\n", "<!-- tier-2-isa:end -->"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md lacks the %q … %q markers", strings.TrimSpace(begin), end)
	}
	i += len(begin)
	want := isaTable()
	if s[i:j] == want {
		return
	}
	if !*Update {
		t.Fatalf("the ISA table in DESIGN.md is out of date with the ops table; rerun with -update")
	}
	if err := os.WriteFile(path, []byte(s[:i]+want+s[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
