package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the serial-fallback matrix in DESIGN.md and testdata/module_hashes.txt")

// fallbackMatrix renders fallbackTable as the markdown table of DESIGN.md §9.
func fallbackMatrix() string {
	var b strings.Builder
	b.WriteString("| Reason | Recurs | Why |\n|---|---|---|\n")
	for _, r := range fallbackTable {
		recurs := "no — this call's options or load"
		if r.intrinsic {
			recurs = "yes — the query's shape"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", r.name, recurs, r.cause)
	}
	return b.String()
}

// TestFallbackMatrixInDesignDoc keeps the serial-fallback matrix of DESIGN.md
// generated from the table FallbackIntrinsic and the executor read: it must
// equal fallbackMatrix() between its two markers.
func TestFallbackMatrixInDesignDoc(t *testing.T) {
	const path = "../../DESIGN.md"
	const begin, end = "<!-- serial-fallback:begin -->\n", "<!-- serial-fallback:end -->"
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
	want := fallbackMatrix()
	if s[i:j] == want {
		return
	}
	if !*update {
		t.Fatalf("the serial-fallback matrix in DESIGN.md is out of date with fallbackTable; rerun with -update")
	}
	if err := os.WriteFile(path, []byte(s[:i]+want+s[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
