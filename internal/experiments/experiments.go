// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) plus the ablations DESIGN.md calls out. cmd/bench is a
// thin flag-parsing wrapper around this package; bench_test.go exposes the
// same workloads as testing.B benchmarks.
//
// Systems are labeled after the systems they stand in for (§8.1):
//
//	mutable     — the paper's architecture (internal/core, TurboFan tier)
//	hyper       — HyPer-like (library designs + LLVM-grade compile)
//	vectorized  — DuckDB-like (generic kernels + selection vectors)
//	volcano     — PostgreSQL-like (tuple-at-a-time, boxed)
//
// Execution-time figures (6–9) report pure execution on fully optimized
// code, as the paper does ("we report only execution times without
// compilation times; we further enforce compilation with the optimizing
// TurboFan compiler"). Figure 10 reports the full phase breakdown.
package experiments

import (
	"fmt"
	"io"
	"time"

	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/volcano"
	"wasmdb/internal/workload"
)

// Options scales the experiments. The paper runs 10 M rows and TPC-H SF 1;
// the defaults here are sized for an interpreted-VM substrate — pass
// -full for paper-scale runs.
type Options struct {
	Rows    int
	Reps    int
	SF      float64
	Systems []string
}

// DefaultSystems lists all four architectures.
var DefaultSystems = []string{"mutable", "hyper", "vectorized", "volcano"}

func (o *Options) norm() {
	if o.Rows == 0 {
		o.Rows = 1_000_000
	}
	if o.Reps == 0 {
		o.Reps = Reps
	}
	if o.SF == 0 {
		o.SF = 0.05
	}
	if len(o.Systems) == 0 {
		o.Systems = DefaultSystems
	}
}

func (o *Options) has(sys string) bool {
	for _, s := range o.Systems {
		if s == sys {
			return true
		}
	}
	return false
}

// Timings is a full phase breakdown of one run. Each phase is counted once:
// Execute holds no compile time, and Total is measured, not summed.
type Timings struct {
	Translate time.Duration
	Liftoff   time.Duration
	Turbofan  time.Duration
	// Execute is pipeline execution alone (core.ExecStats.Run on the
	// compiling systems, the whole run on the interpreting ones).
	Execute time.Duration
	// Total is the wall time from translation to the end of execution:
	// compiles, rewiring and instantiation included.
	Total     time.Duration
	MorselsLo uint64
	MorselsTf uint64
}

// RunOn executes src against cat on the named system and returns the phase
// breakdown. style selects the library designs of the compiling systems;
// hyper always compiles with all of them. adaptive=true runs the wasm
// backends in adaptive mode (Fig. 10 and the tier ablation); otherwise
// execution waits for optimized code.
func RunOn(cat *catalog.Catalog, src, system string, style core.Style, adaptive bool) (Timings, error) {
	var tm Timings
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return tm, err
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		return tm, err
	}
	p, err := plan.Build(q)
	if err != nil {
		return tm, err
	}

	t0 := time.Now()
	switch system {
	case "volcano":
		_, _, err = volcano.Run(q, p)
		tm.Execute = time.Since(t0)
	case "vectorized":
		_, _, _, err = vectorized.Run(q, p)
		tm.Execute = time.Since(t0)
	case "mutable", "hyper", "liftoff", "turbofan", "adaptive":
		cfg, wait := engine.Config{Tier: engine.TierTurbofan}, true
		switch {
		case system == "liftoff":
			cfg.Tier, wait = engine.TierLiftoff, false
		case system == "adaptive" || (adaptive && system != "turbofan"):
			cfg.Tier, wait = engine.TierAdaptive, false
		}
		if system == "hyper" {
			style = core.Style{LibraryHT: true, LibrarySort: true, PredicatedSelection: true}
			cfg.OptRounds = 10
		}
		var cq *core.CompiledQuery
		if cq, err = core.CompileStyled(q, p, style); err != nil {
			break
		}
		tm.Translate = time.Since(t0)
		var st *core.ExecStats
		if _, st, err = core.Execute(cq, q, engine.New(cfg), core.ExecOptions{WaitOptimized: wait}); err != nil {
			break
		}
		tm.Liftoff, tm.Turbofan, tm.Execute = st.Liftoff, st.Turbofan, st.Run
		tm.MorselsLo, tm.MorselsTf = st.MorselsLiftoff, st.MorselsTurbofan
	default:
		return tm, fmt.Errorf("experiments: unknown system %q", system)
	}
	tm.Total = time.Since(t0)
	return tm, err
}

// execTime measures median execution time of src on system, compiled with
// style where the system compiles.
func execTime(o *Options, cat *catalog.Catalog, src, system string, style core.Style) time.Duration {
	return Median(o.Reps, func() time.Duration {
		tm, err := RunOn(cat, src, system, style, false)
		if err != nil {
			panic(fmt.Sprintf("%s on %s: %v", system, src, err))
		}
		return tm.Execute
	})
}

// addAll measures src on every system as the next tick of fig.
func (o *Options) addAll(fig *Figure, cat *catalog.Catalog, src string) {
	for _, sys := range o.Systems {
		fig.Add(sys, execTime(o, cat, src, sys, core.Style{}))
	}
}

// sweep runs one query template across ticks for every system.
func (o *Options) sweep(fig *Figure, cat *catalog.Catalog, queryAt func(i int) string) {
	for i := range fig.XTicks {
		o.addAll(fig, cat, queryAt(i))
	}
}

// selectivityCut converts a selectivity in percent to an int32 cutoff for a
// full-domain uniform column.
func selectivityCut(pct int) int64 {
	span := int64(1) << 32
	return -(int64(1) << 31) + span*int64(pct)/100
}

var pctTicks = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

func pctLabels() []string {
	out := make([]string, len(pctTicks))
	for i, p := range pctTicks {
		out[i] = fmt.Sprintf("%d%%", p)
	}
	return out
}

// Fig6a: selection on a 32-bit integer column across selectivities.
func Fig6a(o Options) *Figure {
	o.norm()
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2, Seed: 601})
	fig := NewFigure(
		fmt.Sprintf("Fig 6a: selection COUNT(*) WHERE i0 < c, int32, %d rows", o.Rows),
		"selectivity", pctLabels()...)
	o.sweep(fig, cat, func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE i0 < %d", selectivityCut(pctTicks[i]))
	})
	return fig
}

// Fig6b: selection on a 64-bit float column across selectivities.
func Fig6b(o Options) *Figure {
	o.norm()
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2, Seed: 602})
	fig := NewFigure(
		fmt.Sprintf("Fig 6b: selection COUNT(*) WHERE f0 < c, float64, %d rows", o.Rows),
		"selectivity", pctLabels()...)
	o.sweep(fig, cat, func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE f0 < %d.%02d", pctTicks[i]/100, pctTicks[i]%100)
	})
	return fig
}

// Fig6c: two conditions with equal, varying selectivity.
func Fig6c(o Options) *Figure {
	o.norm()
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2, Seed: 603})
	fig := NewFigure(
		fmt.Sprintf("Fig 6c: COUNT(*) WHERE i0 < c AND i1 < c (equal per-condition selectivity), %d rows", o.Rows),
		"selectivity", pctLabels()...)
	o.sweep(fig, cat, func(i int) string {
		c := selectivityCut(pctTicks[i])
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE i0 < %d AND i1 < %d", c, c)
	})
	return fig
}

// Fig6d: one condition varies, the other is fixed at 1%.
func Fig6d(o Options) *Figure {
	o.norm()
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2, Seed: 604})
	fixed := selectivityCut(1)
	fig := NewFigure(
		fmt.Sprintf("Fig 6d: COUNT(*) WHERE i0 < c AND i1 < 1%%, %d rows", o.Rows),
		"selectivity", pctLabels()...)
	o.sweep(fig, cat, func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE i0 < %d AND i1 < %d", selectivityCut(pctTicks[i]), fixed)
	})
	return fig
}

// Fig7a: grouping, varying row count (100 distinct groups).
func Fig7a(o Options) *Figure {
	o.norm()
	rows := []int{o.Rows / 100, o.Rows / 10, o.Rows}
	ticks := make([]string, len(rows))
	for i, r := range rows {
		ticks[i] = fmt.Sprintf("%d", r)
	}
	fig := NewFigure("Fig 7a: COUNT(*) GROUP BY g0 (100 groups), varying rows", "rows", ticks...)
	for _, r := range rows {
		cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: r, GroupCols: 1, GroupDistinct: 100, Seed: 701})
		o.addAll(fig, cat, "SELECT g0, COUNT(*) FROM t GROUP BY g0")
	}
	return fig
}

// Fig7b: grouping, varying number of distinct values.
func Fig7b(o Options) *Figure {
	o.norm()
	distinct := []int{10, 100, 1000, 10000, 100000}
	ticks := make([]string, len(distinct))
	for i, d := range distinct {
		ticks[i] = fmt.Sprintf("%d", d)
	}
	fig := NewFigure(
		fmt.Sprintf("Fig 7b: COUNT(*) GROUP BY g0, %d rows, varying distinct values", o.Rows),
		"distinct", ticks...)
	for _, d := range distinct {
		cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, GroupCols: 1, GroupDistinct: d, Seed: 702})
		o.addAll(fig, cat, "SELECT g0, COUNT(*) FROM t GROUP BY g0")
	}
	return fig
}

// Fig7c: grouping, varying number of group-by attributes (~10k groups).
func Fig7c(o Options) *Figure {
	o.norm()
	attrs := []int{1, 2, 3, 4}
	perAttr := []int{10000, 100, 22, 10}
	ticks := []string{"1", "2", "3", "4"}
	fig := NewFigure(
		fmt.Sprintf("Fig 7c: COUNT(*) GROUP BY g0..gn (~10k groups), %d rows", o.Rows),
		"attributes", ticks...)
	for ai, n := range attrs {
		cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, GroupCols: n, GroupDistinct: perAttr[ai], Seed: 703})
		cols := "g0"
		for k := 1; k < n; k++ {
			cols += fmt.Sprintf(", g%d", k)
		}
		src := fmt.Sprintf("SELECT %s, COUNT(*) FROM t GROUP BY %s", cols, cols)
		o.addAll(fig, cat, src)
	}
	return fig
}

// Fig7d: varying number of MIN aggregates (branch-free vs branching MIN).
func Fig7d(o Options) *Figure {
	o.norm()
	counts := []int{1, 2, 4, 8}
	ticks := []string{"1", "2", "4", "8"}
	cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 8, Seed: 704})
	fig := NewFigure(
		fmt.Sprintf("Fig 7d: MIN(i0)..MIN(in), %d rows (branch-free min/max via select)", o.Rows),
		"aggregates", ticks...)
	for _, n := range counts {
		sel := "MIN(i0)"
		for k := 1; k < n; k++ {
			sel += fmt.Sprintf(", MIN(i%d)", k)
		}
		src := "SELECT " + sel + " FROM t"
		o.addAll(fig, cat, src)
	}
	return fig
}

// Fig8a: foreign-key equi-join, varying build size (probe = 4×build).
func Fig8a(o Options) *Figure {
	o.norm()
	sizes := []int{o.Rows / 64, o.Rows / 16, o.Rows / 4, o.Rows}
	ticks := make([]string, len(sizes))
	for i, s := range sizes {
		ticks[i] = fmt.Sprintf("%d", s)
	}
	fig := NewFigure("Fig 8a: foreign-key join COUNT(*), probe=4×build, varying size", "build rows", ticks...)
	for _, n := range sizes {
		cat, _ := workload.JoinPair(n, 4*n, 1, 801)
		src := "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"
		o.addAll(fig, cat, src)
	}
	return fig
}

// Fig8b: n:m equi-join on non-key columns, selectivity 1e-6.
func Fig8b(o Options) *Figure {
	o.norm()
	sizes := []int{o.Rows / 16, o.Rows / 4, o.Rows / 2, o.Rows}
	ticks := make([]string, len(sizes))
	for i, s := range sizes {
		ticks[i] = fmt.Sprintf("%d", s)
	}
	// Fixed number of distinct join values: duplicates per key grow with n
	// (the paper fixes selectivity at 1e-6 and grows n, with the same
	// effect), so collision chains lengthen — the HyPer degradation of §8.2.
	distinct := o.Rows / 8
	if distinct < 1 {
		distinct = 1
	}
	fig := NewFigure(
		fmt.Sprintf("Fig 8b: n:m join COUNT(*), %d distinct join values, n=m (expect superlinear; chains hurt hyper)", distinct),
		"rows per side", ticks...)
	for _, n := range sizes {
		cat, _ := workload.JoinPair(n, n, distinct, 802)
		src := "SELECT COUNT(*) FROM build, probe WHERE build.nk = probe.nk"
		o.addAll(fig, cat, src)
	}
	return fig
}

// Fig9 reproduces the sorting experiment in its three dimensions.
func Fig9(o Options) []*Figure {
	o.norm()
	var figs []*Figure

	// (a) varying rows.
	{
		rows := []int{o.Rows / 100, o.Rows / 10, o.Rows}
		ticks := make([]string, len(rows))
		for i, r := range rows {
			ticks[i] = fmt.Sprintf("%d", r)
		}
		fig := NewFigure("Fig 9a: ORDER BY i0 LIMIT 100, varying rows", "rows", ticks...)
		for _, r := range rows {
			cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: r, IntCols: 4, Seed: 901})
			src := "SELECT i0 FROM t ORDER BY i0 LIMIT 100"
			o.addAll(fig, cat, src)
		}
		figs = append(figs, fig)
	}

	// (b) varying distinct values of the sort key.
	{
		distinct := []int{10, 1000, 100000}
		ticks := []string{"10", "1000", "100000"}
		fig := NewFigure(
			fmt.Sprintf("Fig 9b: ORDER BY g0 LIMIT 100, %d rows, varying distinct", o.Rows), "distinct", ticks...)
		for _, d := range distinct {
			cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, GroupCols: 1, GroupDistinct: d, Seed: 902})
			src := "SELECT g0 FROM t ORDER BY g0 LIMIT 100"
			o.addAll(fig, cat, src)
		}
		figs = append(figs, fig)
	}

	// (c) varying number of sort attributes.
	{
		attrs := []int{1, 2, 4}
		ticks := []string{"1", "2", "4"}
		cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 4, Seed: 903})
		fig := NewFigure(
			fmt.Sprintf("Fig 9c: ORDER BY i0..in LIMIT 100, %d rows", o.Rows), "attributes", ticks...)
		for _, n := range attrs {
			keys := "i0"
			for k := 1; k < n; k++ {
				keys += fmt.Sprintf(", i%d", k)
			}
			src := fmt.Sprintf("SELECT i0 FROM t ORDER BY %s LIMIT 100", keys)
			o.addAll(fig, cat, src)
		}
		figs = append(figs, fig)
	}
	return figs
}

// Fig10 reports the per-phase TPC-H breakdown (translate, baseline compile,
// optimizing compile, execution) for the wasm architecture and the
// HyPer-like baseline, plus execution times of the interpreting baselines.
func Fig10(o Options, out io.Writer) error {
	o.norm()
	cat, err := tpch.Generate(o.SF, 42)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== Fig 10: TPC-H (SF %.2f) compilation and execution phases ==\n", o.SF)
	fmt.Fprintf(out, "%-5s%-11s%12s%12s%12s%12s%14s\n",
		"query", "system", "translate", "liftoff", "turbofan", "execute", "morsels lo/tf")
	for _, id := range tpch.QueryIDs {
		src := tpch.Queries[id]
		for _, sys := range []string{"mutable", "hyper", "vectorized", "volcano"} {
			if !o.has(sys) {
				continue
			}
			// Adaptive: the architecture under test (the interpreters ignore it).
			tm, err := RunOn(cat, src, sys, core.Style{}, true)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", id, sys, err)
			}
			if sys == "mutable" || sys == "hyper" {
				fmt.Fprintf(out, "%-5s%-11s%12s%12s%12s%12s%9d/%d\n",
					id, sys, fmtDur(tm.Translate), fmtDur(tm.Liftoff), fmtDur(tm.Turbofan),
					fmtDur(tm.Execute), tm.MorselsLo, tm.MorselsTf)
			} else {
				fmt.Fprintf(out, "%-5s%-11s%12s%12s%12s%12s%14s\n",
					id, sys, "-", "-", "-", fmtDur(tm.Execute), "-")
			}
		}
	}
	return nil
}

// Fig1 is the paper's headline: compile time vs execution time on TPC-H Q1
// for the adaptive wasm architecture vs the LLVM-grade pipeline.
func Fig1(o Options, out io.Writer) error {
	o.norm()
	cat, err := tpch.Generate(o.SF, 42)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== Fig 1: compile vs execute, TPC-H Q1 (SF %.2f) ==\n", o.SF)
	for _, sys := range []string{"liftoff", "turbofan", "adaptive", "hyper"} {
		tm, err := RunOn(cat, tpch.Queries["Q1"], sys, core.Style{}, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-10s translate=%-10s liftoff=%-10s turbofan=%-10s execute=%-10s latency=%s\n",
			sys, fmtDur(tm.Translate), fmtDur(tm.Liftoff), fmtDur(tm.Turbofan), fmtDur(tm.Execute), fmtDur(tm.Total))
	}
	return nil
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}
