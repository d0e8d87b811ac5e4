package core

import (
	"fmt"
	"testing"
	"time"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
	"wasmdb/internal/workload"
)

// benchmarkMorselDispatch measures executor overhead at a deliberately tiny
// morsel size (many dispatches per query) so the per-morsel cost of the
// tracer dominates any difference. Compare Untraced vs Traced to verify the
// disabled-tracer contract: tracing off must cost only a pointer test on
// the dispatch path (well under the 2% budget).
func benchmarkMorselDispatch(b *testing.B, mkTrace func() *obs.Trace) {
	cat := catalog.New()
	tbl, err := cat.Create("r", []catalog.ColumnDef{{Name: "x", Type: types.TInt32}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		tbl.AppendRow(types.NewInt32(int32(i % 1000)))
	}
	stmt, err := sql.ParseSelect("SELECT COUNT(*) FROM r WHERE x < 500")
	if err != nil {
		b.Fatal(err)
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(q)
	if err != nil {
		b.Fatal(err)
	}
	cq, err := Compile(q, p)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Execute(cq, q, eng, ExecOptions{MorselRows: 512, Trace: mkTrace()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMorselDispatchUntraced(b *testing.B) {
	benchmarkMorselDispatch(b, func() *obs.Trace { return nil })
}

func BenchmarkMorselDispatchTraced(b *testing.B) {
	benchmarkMorselDispatch(b, obs.NewTrace)
}

func BenchmarkMorselDispatchDetail(b *testing.B) {
	benchmarkMorselDispatch(b, func() *obs.Trace {
		tr := obs.NewTrace()
		tr.Detail = true
		return tr
	})
}

// BenchmarkExecuteStartup measures what a warm query pays before its first
// morsel — building each worker's linear memory, rewiring the columns,
// instantiating the precompiled module and running q_init — on a table small
// enough (1000 rows, one morsel) that the run phase is noise. init-ns/op is
// ExecStats.Init; B/op is the whole execution and is dominated by the pages
// q_init and the single morsel commit.
func BenchmarkExecuteStartup(b *testing.B) {
	cq, q := compileOn(b, parCatalog(b, 1000), "SELECT COUNT(*), SUM(i0), MIN(i1) FROM t WHERE i0 < 0")
	eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
	mod, err := eng.Compile(cq.Bin)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var init time.Duration
			for i := 0; i < b.N; i++ {
				_, st, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if st.Workers != workers {
					b.Fatalf("ran with %d workers, want %d", st.Workers, workers)
				}
				init += st.Init
			}
			b.ReportMetric(float64(init.Nanoseconds())/float64(b.N), "init-ns/op")
		})
	}
}

// BenchmarkJoinBuild measures the build side of an ad-hoc hash join on tier-2
// code: build-ns/row is the build pipeline — scan, tuple append and the
// barrier — per build row, barrier-µs the barrier alone (reserve, alias and
// finish, from the join-merge event). dup is the number of build rows per
// key; the probe side is one row larger than the build side so the planner
// keeps `build` on the build side, and its time is in ns/op only.
func BenchmarkJoinBuild(b *testing.B) {
	eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
	for _, rows := range []int{2_000, 32_000, 256_000} {
		for _, dup := range []int{1, 4} {
			cat, err := workload.JoinPair(rows, rows+1, rows/dup, 31)
			if err != nil {
				b.Fatal(err)
			}
			src := "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"
			if dup > 1 {
				src = "SELECT COUNT(*) FROM build, probe WHERE build.nk = probe.nk"
			}
			cq, q := compileOn(b, cat, src)
			mod, err := eng.Compile(cq.Bin)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("rows=%d/dup=%d/workers=%d", rows, dup, workers), func(b *testing.B) {
					var build, barrier time.Duration
					for i := 0; i < b.N; i++ {
						tr := obs.NewTrace()
						if _, _, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Parallelism: workers, Trace: tr}); err != nil {
							b.Fatal(err)
						}
						build += tr.Dur(obs.SpanPipeline + cq.Pipelines[0].Export)
						for _, ev := range tr.Events() {
							for _, a := range ev.Args {
								if ev.Name == obs.EvJoinMerge && (a.Key == "alias_ns" || a.Key == "finish_ns") {
									barrier += time.Duration(a.Val)
								}
							}
						}
					}
					b.ReportMetric(float64(build.Nanoseconds())/float64(b.N*rows), "build-ns/row")
					b.ReportMetric(float64(barrier.Microseconds())/float64(b.N), "barrier-µs")
				})
			}
		}
	}
}
