package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/wasm"
)

// reuseCase is one planned query of the builder-reuse differential in one
// style, with what a compile into a fresh builder produces for it.
type reuseCase struct {
	name  string
	q     *sema.Query
	root  plan.Node
	style Style
	bin   []byte
	wat   string
}

// reuseCorpus plans TestModuleGolden's corpus and TestCodeSizeGolden's
// queries in both styles and compiles each into a fresh builder. The fresh
// builder's Module is read a second time, after the compile has encoded it:
// it must encode to the same bytes, and its printed form is the WAT every
// reused compile must reproduce.
func reuseCorpus(t *testing.T) []reuseCase {
	t.Helper()
	type src struct {
		cat *catalog.Catalog
		sql string
	}
	tcat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []src
	for _, id := range tpch.QueryIDs {
		srcs = append(srcs, src{tcat, tpch.Queries[id]})
	}
	// TestCodeSizeGolden's two queries beyond the TPC-H five.
	srcs = append(srcs,
		src{tcat, "SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '1994-04-01' GROUP BY l_shipmode ORDER BY l_shipmode"},
		src{tcat, "SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = 'F' GROUP BY o_orderpriority ORDER BY o_orderpriority"})
	mcat := microCatalog(t, 4000)
	for _, c := range styleCorpus {
		srcs = append(srcs, src{mcat, c.src})
	}
	for _, c := range fallbackCases(t) {
		srcs = append(srcs, src{c.cat, c.src})
	}

	var out []reuseCase
	for _, s := range srcs {
		stmt, err := sql.ParseSelect(s.sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sema.Analyze(stmt, s.cat)
		if err != nil {
			t.Fatal(err)
		}
		root, err := plan.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []struct {
			name  string
			style Style
		}{{"adhoc", Style{}}, {"hyper", hyperStyle}} {
			b := wasm.NewModuleBuilder()
			cq, err := compileWith(q, root, st.style, b)
			if err != nil {
				t.Fatalf("%s %s: %v", st.name, s.sql, err)
			}
			mod := b.Module()
			if !bytes.Equal(wasm.Encode(mod), cq.Bin) {
				t.Fatalf("%s %s: the builder's Module, read again, encodes differently", st.name, s.sql)
			}
			out = append(out, reuseCase{name: st.name + " " + s.sql, q: q, root: root, style: st.style, bin: cq.Bin, wat: wasm.Print(mod)})
		}
	}
	return out
}

// check compiles c through the pooled path and returns what differs from the
// fresh builder's compile.
func (c *reuseCase) check() error {
	cq, err := CompileStyled(c.q, c.root, c.style)
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	if !bytes.Equal(cq.Bin, c.bin) {
		return fmt.Errorf("%s: pooled compile differs from a fresh builder's (%d vs %d bytes)", c.name, len(cq.Bin), len(c.bin))
	}
	if cq.WAT() != c.wat {
		return fmt.Errorf("%s: WAT of the pooled compile differs from the fresh builder's module", c.name)
	}
	return nil
}

// TestBuilderReuseDifferential pins that a reused module builder emits what a
// fresh one does: every module of the corpus, compiled after other modules
// in two different orders, by one builder Reset between compiles, and from
// four goroutines at once, is byte-identical to its compile into a fresh
// builder, and its WAT equals the fresh builder's module printed. A Reset
// that leaves something of the last module behind (a locals vector, a type,
// an export) or a Module that closes a body twice fails here.
func TestBuilderReuseDifferential(t *testing.T) {
	cases := reuseCorpus(t)
	n := len(cases)

	// The pooled path, twice: in corpus order, then alternating from both
	// ends, so each module follows a different predecessor.
	fwd, mixed := make([]int, n), make([]int, 0, n)
	for i := range fwd {
		fwd[i] = i
	}
	for i, j := 0, n-1; i <= j; i, j = i+1, j-1 {
		mixed = append(mixed, j)
		if i != j {
			mixed = append(mixed, i)
		}
	}
	for _, order := range [][]int{fwd, mixed} {
		for _, i := range order {
			if err := cases[i].check(); err != nil {
				t.Error(err)
			}
		}
	}

	// One builder, Reset between compiles: reuse even where the pool would
	// hand out a different builder.
	b := wasm.NewModuleBuilder()
	for _, i := range mixed {
		c := &cases[i]
		cq, err := compileWith(c.q, c.root, c.style, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cq.Bin, c.bin) {
			t.Errorf("%s: compile into a Reset builder differs from a fresh builder's", c.name)
		}
		b.Reset()
	}

	// Four goroutines at once, each starting at a different point.
	var wg sync.WaitGroup
	errs := make(chan error, 4*n)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				if err := cases[(k+g*n/4)%n].check(); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
