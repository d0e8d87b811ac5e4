package engine_test

import (
	"sync"
	"testing"
	"time"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/engine/turbofan"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/wasm"
)

// The kernel benchmarks time the three functions whose tier-2 listings are
// pinned under turbofan/testdata — Q6's scan loop, Q1's group-update path,
// Q3's join probe — as the executor runs them: the whole query over a fixed
// lineitem of about 64 Ki rows (TPC-H SF 0.011, seed 42) with the tier
// forced, reported per lineitem row next to the instruction count the tier
// emitted for the kernel function. Compile time is not included; it has its
// own benchmark below.

type kernel struct {
	name, query, export string

	q    *sema.Query
	cq   *core.CompiledQuery
	mod  *wasm.Module
	fn   *wasm.Func
	rows int
}

var (
	kernelsOnce sync.Once
	kernels     = []*kernel{
		{name: "q6_scan", query: "Q6", export: "pipeline_0"},
		{name: "q1_group_update", query: "Q1", export: "pipeline_0"},
		{name: "q3_join_probe", query: "Q3", export: "pipeline_2"},
	}
)

func loadKernels(tb testing.TB) []*kernel {
	kernelsOnce.Do(func() {
		cat, err := tpch.Generate(0.011, 42)
		if err != nil {
			tb.Fatal(err)
		}
		lineitem, err := cat.Table("lineitem")
		if err != nil {
			tb.Fatal(err)
		}
		for _, k := range kernels {
			stmt, err := sql.ParseSelect(tpch.Queries[k.query])
			if err != nil {
				tb.Fatal(err)
			}
			if k.q, err = sema.Analyze(stmt, cat); err != nil {
				tb.Fatal(err)
			}
			p, err := plan.Build(k.q)
			if err != nil {
				tb.Fatal(err)
			}
			if k.cq, err = core.Compile(k.q, p); err != nil {
				tb.Fatal(err)
			}
			if k.mod, err = wasm.Decode(k.cq.Bin); err != nil {
				tb.Fatal(err)
			}
			idx, ok := k.mod.ExportedFunc(k.export)
			if !ok {
				tb.Fatalf("%s exports no %s", k.query, k.export)
			}
			k.fn = &k.mod.Funcs[int(idx)-k.mod.NumImportedFuncs()]
			k.rows = lineitem.Rows()
		}
	})
	return kernels
}

func benchmarkKernels(b *testing.B, tier engine.Tier) {
	for _, k := range loadKernels(b) {
		b.Run(k.name, func(b *testing.B) {
			eng := engine.New(engine.Config{Tier: tier})
			m, err := eng.Compile(k.cq.Bin)
			if err != nil {
				b.Fatal(err)
			}
			compile := turbofan.CompileBaseline
			if tier == engine.TierTurbofan {
				compile = turbofan.Compile
			}
			c, err := compile(k.mod, k.fn)
			if err != nil {
				b.Fatal(err)
			}
			instrs := c.NumInstrs()
			var run time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := core.Execute(k.cq, k.q, eng, core.ExecOptions{Precompiled: m})
				if err != nil {
					b.Fatal(err)
				}
				run += st.Run
			}
			b.ReportMetric(float64(run.Nanoseconds())/float64(b.N)/float64(k.rows), "ns/row")
			b.ReportMetric(float64(instrs), "instrs")
		})
	}
}

// BenchmarkTier2Kernels runs the kernels on the optimizing compiler's code.
func BenchmarkTier2Kernels(b *testing.B) { benchmarkKernels(b, engine.TierTurbofan) }

// BenchmarkTier1Kernels runs the kernels on the baseline compiler's code.
func BenchmarkTier1Kernels(b *testing.B) { benchmarkKernels(b, engine.TierLiftoff) }

// benchmarkCompile compiles every function of the three queries' modules and
// reports module bytes per microsecond, the unit of the benchmark's
// engine.liftoff_compile_bytes_per_us and engine.turbofan_compile_bytes_per_us.
func benchmarkCompile(b *testing.B, compile func(*wasm.Module, *wasm.Func) (*turbofan.Code, error)) {
	ks := loadKernels(b)
	bytes := 0
	for _, k := range ks {
		bytes += len(k.cq.Bin)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			for fi := range k.mod.Funcs {
				if _, err := compile(k.mod, &k.mod.Funcs[fi]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(bytes)*float64(b.N)/float64(b.Elapsed().Microseconds()), "B/µs")
}

// BenchmarkTurbofanCompile is the optimizing compiler's speed.
func BenchmarkTurbofanCompile(b *testing.B) { benchmarkCompile(b, turbofan.Compile) }

// BenchmarkBaselineCompile is the baseline compiler's — the emitter alone.
func BenchmarkBaselineCompile(b *testing.B) { benchmarkCompile(b, turbofan.CompileBaseline) }
