package experiments

import (
	"fmt"
	"time"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/harness"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/workload"
)

// ScalingWorkers are the worker-pool sizes the scaling experiment sweeps.
var ScalingWorkers = []int{1, 2, 4}

// scalingQueries are the parallel-eligible shapes the experiment sweeps:
// a keyless aggregation and a grouped aggregation (both folded into the
// primary by the module's generated merge export at the fold barrier), and
// a hash join (tuple chunks shared at the build barrier, probe
// embarrassingly parallel). The join runs on its own build/probe table
// pair; the others on the generic table t.
var scalingQueries = []struct {
	name string
	join bool
	src  string
}{
	{"scaling", false, "SELECT COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t WHERE i0 < 0"},
	{"scaling-group", false, "SELECT g0, COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t GROUP BY g0"},
	{"scaling-join", true, "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"},
}

// Scaling measures intra-query parallel speedup: each query is compiled
// once and executed with 1, 2, and 4 morsel workers on fully optimized
// code. The queries are chosen to be parallel-eligible, so a serial
// fallback at w > 1 indicates a regression; rather than abort
// the whole experiment, the fallback reason is recorded on the result row
// so the regression is visible in BENCH_scaling.json next to the numbers.
func Scaling(o Options) ([]Record, error) {
	o.norm()
	cat, err := workload.Catalog(workload.Spec{
		Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2,
		GroupCols: 1, GroupDistinct: 64, Seed: 4343,
	})
	if err != nil {
		return nil, err
	}

	// Join pair: build is a quarter of the probe row count, unique keys.
	joinCat, err := workload.JoinPair(o.Rows/4, o.Rows, 1, 4343)
	if err != nil {
		return nil, err
	}

	eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
	var recs []Record
	for _, qry := range scalingQueries {
		qcat := cat
		if qry.join {
			qcat = joinCat
		}
		stmt, err := sql.ParseSelect(qry.src)
		if err != nil {
			return nil, err
		}
		q, err := sema.Analyze(stmt, qcat)
		if err != nil {
			return nil, err
		}
		p, err := plan.Build(q)
		if err != nil {
			return nil, err
		}
		cq, err := core.Compile(q, p)
		if err != nil {
			return nil, err
		}

		for _, w := range ScalingWorkers {
			w := w
			var stats *core.ExecStats
			exec := harness.Median(o.Reps, func() time.Duration {
				var err error
				_, stats, err = core.Execute(cq, q, eng, core.ExecOptions{
					WaitOptimized: true,
					Parallelism:   w,
				})
				if err != nil {
					panic(fmt.Sprintf("%s w=%d: %v", qry.name, w, err))
				}
				return stats.Run
			})
			recs = append(recs, Record{
				Name:     fmt.Sprintf("%s:w%d", qry.name, w),
				Backend:  "mutable",
				Rows:     o.Rows,
				ExecNs:   exec.Nanoseconds(),
				Workers:  w,
				Fallback: stats.SerialFallback,
			})
		}
	}
	return recs, nil
}
