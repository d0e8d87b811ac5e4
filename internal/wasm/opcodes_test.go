package wasm

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/opcodes.txt")

var immNames = [...]string{
	ImmNone: "none", ImmBlockType: "blocktype", ImmLabel: "label", ImmBrTable: "br_table",
	ImmFuncIdx: "funcidx", ImmTypeIdx: "typeidx", ImmLocalIdx: "localidx", ImmGlobalIdx: "globalidx",
	ImmMemArg: "memarg", ImmMemIdx: "memidx", ImmI32: "i32", ImmI64: "i64", ImmF32: "f32", ImmF64: "f64",
}

// TestOpcodeTableGolden pins the opcode table: one line per known opcode
// with its mnemonic, its immediate kind and, for an opcode with a fixed
// signature, the types it pops and pushes ("-" for an opcode whose effect
// depends on its immediates or its context). Rerun with -update to accept a
// change.
func TestOpcodeTableGolden(t *testing.T) {
	const path = "testdata/opcodes.txt"
	var got strings.Builder
	got.WriteString("# opcode mnemonic immediate popped -> pushed — regenerate with go test ./internal/wasm -run OpcodeTableGolden -update\n")
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		if !op.Known() {
			continue
		}
		fmt.Fprintf(&got, "0x%02x %s %s", i, op, immNames[op.Imm()])
		in, out, ok := fixedSig(op)
		if !ok {
			got.WriteString(" -\n")
			continue
		}
		fmt.Fprintf(&got, " %v -> %v\n", in, out)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("opcode table differs from %s; rerun with -update to accept:\n%s", path, got.String())
	}
}

// fixedSig reads an opcode's fixed signature from its opcode-table row.
func fixedSig(op Opcode) (in, out []ValType, ok bool) {
	s := opTable[op].sig
	if s.out != 0 {
		out = []ValType{s.out}
	}
	return s.in[:s.n], out, s != sig{}
}
