package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"wasmdb/internal/tpch"
	"wasmdb/internal/wasm"
)

// TestModuleGolden pins the generated modules byte for byte: the SHA-256 and
// size of CompiledQuery.Bin for the five TPC-H queries, the style corpus and
// the queries of the serial-fallback matrix, each compiled in the paper's
// ad-hoc style and in the HyPer-like style, must equal
// testdata/module_hashes.txt. A change to the code generator shows here
// exactly which shapes it touched; rerun with -update to accept them, and say
// in the PR why each ad-hoc module moved. Every module hashed is also decoded
// and validated here, since the compiler itself leaves validation to the
// engine: a code-generation bug fails at code generation.
func TestModuleGolden(t *testing.T) {
	const path = "testdata/module_hashes.txt"
	var got strings.Builder
	got.WriteString("# style sha256(module) bytes query — regenerate with go test ./internal/core -run ModuleGolden -update\n")
	seen := map[string]bool{}
	add := func(name string, compile func(Style) *CompiledQuery) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, s := range []struct {
			name  string
			style Style
		}{{"adhoc", Style{}}, {"hyper", hyperStyle}} {
			bin := compile(s.style).Bin
			if m, err := wasm.Decode(bin); err != nil {
				t.Errorf("%s %s: %v", s.name, name, err)
			} else if err := wasm.Validate(m); err != nil {
				t.Errorf("%s %s: generated module does not validate: %v", s.name, name, err)
			}
			fmt.Fprintf(&got, "%s %x %d %s\n", s.name, sha256.Sum256(bin), len(bin), name)
		}
	}

	tcat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tpch.QueryIDs {
		add("tpch: "+id, func(s Style) *CompiledQuery {
			cq, _ := compileStyledOn(t, tcat, tpch.Queries[id], s)
			return cq
		})
	}
	mcat := microCatalog(t, 4000)
	for _, c := range styleCorpus {
		add("micro: "+c.src, func(s Style) *CompiledQuery {
			cq, _ := compileStyledOn(t, mcat, c.src, s)
			return cq
		})
	}
	for _, c := range fallbackCases(t) {
		add("parallel: "+c.src, func(s Style) *CompiledQuery {
			cq, _ := compileStyledOn(t, c.cat, c.src, s)
			return cq
		})
	}

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
	wantLines := strings.Split(string(want), "\n")
	for i, l := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || l != wantLines[i] {
			t.Errorf("module changed (or the corpus did): %s", l)
		}
	}
	t.Errorf("%s is out of date with the code generator; rerun with -update", path)
}
