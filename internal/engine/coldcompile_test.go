package engine_test

import (
	"errors"
	"math/rand"
	"testing"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/vectorized"
)

// styles are the two code-generation styles: the paper's ad-hoc one and the
// HyPer-like one.
var styles = []struct {
	name  string
	style core.Style
}{{"adhoc", core.Style{}}, {"hyper", core.Style{LibraryHT: true, LibrarySort: true, PredicatedSelection: true}}}

type plannedQuery struct {
	id   string
	q    *sema.Query
	root plan.Node
}

// planQueries parses, analyzes and plans codeSizeQueries on TPC-H SF 0.01
// (seed 42).
func planQueries(tb testing.TB) []plannedQuery {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		tb.Fatal(err)
	}
	var out []plannedQuery
	for _, c := range codeSizeQueries {
		stmt, err := sql.ParseSelect(c.src)
		if err != nil {
			tb.Fatal(err)
		}
		q, err := sema.Analyze(stmt, cat)
		if err != nil {
			tb.Fatal(err)
		}
		root, err := plan.Build(q)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, plannedQuery{c.id, q, root})
	}
	return out
}

// BenchmarkColdCompile is what every cold query pays between its plan and the
// engine's first instruction: code generation (core.CompileStyled, which
// encodes the module) and engine.Compile on the baseline tier (decode,
// validate, emit). One op covers the seven queries of TestCodeSizeGolden in
// both styles; the frontend runs once, outside the timer.
func BenchmarkColdCompile(b *testing.B) {
	qs := planQueries(b)
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range styles {
			for _, q := range qs {
				cq, err := core.CompileStyled(q.q, q.root, s.style)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Compile(cq.Bin); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// FuzzCompileMutatedModule flips bits in real modules — TPC-H Q1 and Q3 as
// the query compiler emits them, and the vectorized kernel library — and
// compiles the result on every tier. Compile must return an error or a
// module, on all tiers alike, and never panic: not in the decoder, the
// validator or either compiler. A panic the engine recovers from comes back
// as an *engine.EngineError, which fails here too. The second argument picks
// the bits: flips%4 of them, at positions drawn from a generator seeded with
// flips; 0 compiles the module as it is.
func FuzzCompileMutatedModule(f *testing.F) {
	qs := planQueries(f)
	seeds := [][]byte{vectorized.KernelBinary()}
	for _, q := range qs {
		if q.id == "Q1" || q.id == "Q3" {
			cq, err := core.Compile(q.q, q.root)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, cq.Bin)
		}
	}
	for _, bin := range seeds {
		for _, flips := range []uint64{0, 1, 2, 3, 0x9E3779B97F4A7C15} {
			f.Add(bin, flips)
		}
	}
	tiers := []engine.Tier{engine.TierLiftoff, engine.TierTurbofan, engine.TierAdaptive}
	f.Fuzz(func(t *testing.T, bin []byte, flips uint64) {
		if len(bin) > 0 {
			bin = append([]byte(nil), bin...)
			rng := rand.New(rand.NewSource(int64(flips)))
			for k := flips % 4; k > 0; k-- {
				bin[rng.Intn(len(bin))] ^= 1 << rng.Intn(8)
			}
		}
		var compiled []bool
		for _, tier := range tiers {
			m, err := engine.New(engine.Config{Tier: tier}).Compile(bin)
			if err == nil {
				err = m.WaitOptimized()
			}
			if ee := (*engine.EngineError)(nil); errors.As(err, &ee) {
				t.Fatalf("%v: %v\n%s", tier, ee, ee.Stack)
			}
			compiled = append(compiled, err == nil)
		}
		if compiled[0] != compiled[1] || compiled[0] != compiled[2] {
			t.Fatalf("tiers disagree on whether the module compiles (liftoff, turbofan, adaptive): %v", compiled)
		}
	})
}
