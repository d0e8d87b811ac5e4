package wasmdb_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wasmdb"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/experiments"
	"wasmdb/internal/obs"
	"wasmdb/internal/tpch"
	"wasmdb/internal/workload"
)

// One testing.B benchmark per paper table/figure. These run reduced sizes so
// `go test -bench=.` finishes quickly; cmd/bench regenerates the figures at
// full scale with sweeps and per-system series (see DESIGN.md §4).

const benchRows = 200_000

var benchSystems = []string{"mutable", "hyper", "vectorized", "volcano"}

func benchQuery(b *testing.B, cat *catalog.Catalog, src string) {
	b.Helper()
	for _, sys := range benchSystems {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunOn(cat, src, sys, core.Style{}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func selCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat, err := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, IntCols: 2, FloatCols: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

// BenchmarkFig6SelectionI32 — Fig. 6a at 50% selectivity (the branching
// worst case).
func BenchmarkFig6SelectionI32(b *testing.B) {
	benchQuery(b, selCatalog(b), "SELECT COUNT(*) FROM t WHERE i0 < 0")
}

// BenchmarkFig6SelectionF64 — Fig. 6b at 50%.
func BenchmarkFig6SelectionF64(b *testing.B) {
	benchQuery(b, selCatalog(b), "SELECT COUNT(*) FROM t WHERE f0 < 0.5")
}

// BenchmarkFig6TwoCondEqual — Fig. 6c at ~71% per condition (mutable's
// worst case per §8.2).
func BenchmarkFig6TwoCondEqual(b *testing.B) {
	c := int64(902_000_000) // ≈ 71% of the int32 domain
	benchQuery(b, selCatalog(b), fmt.Sprintf("SELECT COUNT(*) FROM t WHERE i0 < %d AND i1 < %d", c, c))
}

// BenchmarkFig6TwoCondFixed — Fig. 6d with the second condition at 1%.
func BenchmarkFig6TwoCondFixed(b *testing.B) {
	benchQuery(b, selCatalog(b),
		"SELECT COUNT(*) FROM t WHERE i0 < 0 AND i1 < -2104533975")
}

// BenchmarkFig7GroupRows — Fig. 7a (100 groups).
func BenchmarkFig7GroupRows(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, GroupCols: 1, GroupDistinct: 100, Seed: 2})
	benchQuery(b, cat, "SELECT g0, COUNT(*) FROM t GROUP BY g0")
}

// BenchmarkFig7GroupDistinct — Fig. 7b (100k distinct values).
func BenchmarkFig7GroupDistinct(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, GroupCols: 1, GroupDistinct: 100_000, Seed: 3})
	benchQuery(b, cat, "SELECT g0, COUNT(*) FROM t GROUP BY g0")
}

// BenchmarkFig7GroupAttrs — Fig. 7c (two attributes, ~10k groups).
func BenchmarkFig7GroupAttrs(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, GroupCols: 2, GroupDistinct: 100, Seed: 4})
	benchQuery(b, cat, "SELECT g0, g1, COUNT(*) FROM t GROUP BY g0, g1")
}

// BenchmarkFig7Aggregates — Fig. 7d (four MIN aggregates, branch-free).
func BenchmarkFig7Aggregates(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, IntCols: 4, Seed: 5})
	benchQuery(b, cat, "SELECT MIN(i0), MIN(i1), MIN(i2), MIN(i3) FROM t")
}

// BenchmarkFig8JoinFK — Fig. 8a (foreign-key join).
func BenchmarkFig8JoinFK(b *testing.B) {
	cat, _ := workload.JoinPair(benchRows/4, benchRows, 1, 6)
	benchQuery(b, cat, "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk")
}

// BenchmarkFig8JoinNM — Fig. 8b (n:m join, selectivity 1e-6).
func BenchmarkFig8JoinNM(b *testing.B) {
	cat, _ := workload.JoinPair(benchRows/2, benchRows/2, 1_000_000, 7)
	benchQuery(b, cat, "SELECT COUNT(*) FROM build, probe WHERE build.nk = probe.nk")
}

// BenchmarkFig9Sort — Fig. 9 (single-key sort).
func BenchmarkFig9Sort(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, IntCols: 2, Seed: 8})
	benchQuery(b, cat, "SELECT i0 FROM t ORDER BY i0 LIMIT 100")
}

// BenchmarkFig9SortMultiKey — Fig. 9c (two sort attributes).
func BenchmarkFig9SortMultiKey(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, IntCols: 2, Seed: 9})
	benchQuery(b, cat, "SELECT i0 FROM t ORDER BY i0, i1 LIMIT 100")
}

// BenchmarkFig10TPCH — Fig. 10 (full phase runs, adaptive mode).
func BenchmarkFig10TPCH(b *testing.B) {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range tpch.QueryIDs {
		id := id
		for _, sys := range []string{"mutable", "hyper", "vectorized", "volcano"} {
			sys := sys
			b.Run(id+"/"+sys, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunOn(cat, tpch.Queries[id], sys, core.Style{}, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1CompileVsExecute — Fig. 1: per-tier latency on TPC-H Q1.
func BenchmarkFig1CompileVsExecute(b *testing.B) {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range []string{"liftoff", "turbofan", "adaptive"} {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunOn(cat, tpch.Queries["Q1"], sys, core.Style{}, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHashTable — §4.3 ablation (generated vs library HT).
func BenchmarkAblationHashTable(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, GroupCols: 1, GroupDistinct: 1000, Seed: 10})
	src := "SELECT g0, COUNT(*) FROM t GROUP BY g0"
	for _, sys := range []string{"mutable", "hyper"} {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunOn(cat, src, sys, core.Style{}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSort — §5 ablation (generated vs library sort).
func BenchmarkAblationSort(b *testing.B) {
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: benchRows, IntCols: 2, Seed: 11})
	src := "SELECT i0 FROM t ORDER BY i0, i1 LIMIT 100"
	for _, sys := range []string{"mutable", "hyper"} {
		sys := sys
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunOn(cat, src, sys, core.Style{}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelOrderBy is the sorted-run barrier's probe: an ungrouped
// ORDER BY over TPC-H SF 0.01's 60 k lineitem rows, warm (a plan-cache hit
// on an optimized module), on 1, 2 and 4 workers. p50-ms is the median
// query, merge-ms/op the barrier's span alone: gathering the runs and
// merging them.
func BenchmarkParallelOrderBy(b *testing.B) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		b.Fatal(err)
	}
	const src = "SELECT l_extendedprice, l_orderkey FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey"
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run := func(tr *wasmdb.Trace) {
				if _, err := db.Query(src, wasmdb.WithParallelism(workers), wasmdb.WithTrace(tr)); err != nil {
					b.Fatal(err)
				}
			}
			for range 3 { // compile, tier up
				run(wasmdb.NewTrace())
			}
			var merge time.Duration
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				tr := wasmdb.NewTrace()
				start := time.Now()
				run(tr)
				lat[i] = time.Since(start)
				merge += tr.Dur(obs.SpanMerge)
			}
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50-ms")
			b.ReportMetric(float64(merge.Microseconds())/1e3/float64(b.N), "merge-ms/op")
		})
	}
}
