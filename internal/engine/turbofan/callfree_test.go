package turbofan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// TestRunLoopMemoryAccessIsCallFree builds this package, disassembles
// (*Code).run and fails if a memory access calls out on its fast path. Go inlines
// nothing costlier than a few nodes into a function as big as run, so a
// helper that looks free in the source — encoding/binary, a memory accessor
// of rt or wmem — is a CALL per load in the binary. Each access tail of run
// (a label other than taken) may call rt.CheckAddr and one wmem accessor on
// its slow path, add@mem's tail two (it reads and writes); more calls mean a
// fast path calls.
func TestRunLoopMemoryAccessIsCallFree(t *testing.T) {
	if testing.Short() {
		t.Skip("disassembles the test binary")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
		if _, err := os.Stat(gobin); err != nil {
			t.Skip("no go binary to run go tool objdump with")
		}
	}
	// The package archive holds the compiled code with its call relocations;
	// building it to a file of its own reuses the build cache.
	archive := filepath.Join(t.TempDir(), "turbofan.a")
	if out, err := exec.Command(gobin, "build", "-o", archive, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(gobin, "tool", "objdump", "-s", `^wasmdb/internal/engine/turbofan\.\(\*Code\)\.run$`, archive).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}
	calls := regexp.MustCompile(`R_CALL:(\S+)`).FindAllStringSubmatch(string(out), -1)
	if len(calls) == 0 {
		t.Fatalf("no calls found in the disassembly of (*Code).run:\n%s", out)
	}

	tails := 0
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "run.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.LabeledStmt); ok && l.Label.Name != "taken" {
			tails++
		}
		return true
	})

	accessor := regexp.MustCompile(`^wasmdb/internal/engine/wmem\.\(\*Memory\)\.(Put)?U(8|16|32|64)$`)
	helper := regexp.MustCompile(`^(encoding/binary\.|wasmdb/internal/engine/rt\.(Ld|St))`)
	var checks, accessors int
	for _, c := range calls {
		switch fn := c[1]; {
		case helper.MatchString(fn):
			t.Errorf("run calls %s", fn)
		case fn == "wasmdb/internal/engine/rt.CheckAddr":
			checks++
		case accessor.MatchString(fn):
			accessors++
		}
	}
	if checks > tails {
		t.Errorf("run calls rt.CheckAddr from %d sites, but has %d access tails", checks, tails)
	}
	if accessors > tails+1 {
		t.Errorf("run calls wmem accessors from %d sites, but its %d access tails have %d slow-path calls", accessors, tails, tails+1)
	}
	t.Logf("%d access tails; run calls rt.CheckAddr from %d sites and wmem accessors from %d", tails, checks, accessors)
}
