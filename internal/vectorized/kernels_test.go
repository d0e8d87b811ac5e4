package vectorized

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wasmdb/internal/wasm"
)

var update = flag.Bool("update", false, "rewrite testdata/kernels.txt")

func TestKernelModuleCompiles(t *testing.T) {
	if _, err := kernelModule(); err != nil {
		t.Fatalf("kernel module: %v", err)
	}
	t.Logf("kernel module: %d bytes", len(kernelBin))
}

// TestKernelModuleGolden pins the kernel library function by function: for
// every function of buildKernelModule, its name, its instruction count and
// the SHA-256 of its signature, locals and body must equal
// testdata/kernels.txt. A call is hashed by the callee's name, not its index,
// so deleting a function leaves every other line unchanged. Rerun with
// -update to accept a change, and say why each moved kernel moved.
func TestKernelModuleGolden(t *testing.T) {
	const path = "testdata/kernels.txt"
	m := buildKernelModule()
	var got strings.Builder
	got.WriteString("# function instructions sha256(signature, locals, body) — regenerate with go test ./internal/vectorized -run KernelModuleGolden -update\n")
	for _, fn := range m.Funcs {
		h := sha256.New()
		fmt.Fprintf(h, "%s %v\n", m.Types[fn.Type], fn.Locals)
		n := 0
		var in wasm.Instr
		r := wasm.NewReader(fn.Code)
		for ; r.Next(&in); n++ {
			if in.Op == wasm.OpCall {
				fmt.Fprintf(h, "call %s\n", m.Funcs[in.A].Name)
				continue
			}
			fmt.Fprintf(h, "%d %d %d %v\n", in.Op, in.A, in.B, in.Table)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", fn.Name, n, h.Sum(nil))
	}
	bin := wasm.Encode(m)
	t.Logf("kernel module: %d functions, %d exports, %d bytes, sha256 %x",
		len(m.Funcs), len(m.Exports), len(bin), sha256.Sum256(bin))

	want, err := os.ReadFile(path)
	if err != nil && !*update {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(got.String(), "\n") {
		if !wantLines[l] {
			t.Errorf("kernel changed (or is new): %s", l)
		}
	}
	t.Errorf("%s is out of date with the kernel emitters; rerun with -update", path)
}
