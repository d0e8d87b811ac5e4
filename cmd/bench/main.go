// Command bench regenerates the paper's tables and figures (§8) and the
// ablation studies. Each experiment prints one aligned table to stdout with
// one series per system; it writes no file. The engine's own end-to-end
// workloads and their per-layer metrics live in ./benchmark.
//
// Usage:
//
//	bench -experiment fig6a
//	bench -experiment all -rows 1000000 -sf 0.05
//	bench -experiment fig10 -sf 0.1
//	bench -experiment fig6a,fig6c -systems mutable,vectorized
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wasmdb/internal/experiments"
)

var allExperiments = []string{
	"fig1", "fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d",
	"fig8a", "fig8b", "fig9", "fig10",
	"abl-ht", "abl-sort", "abl-rewire", "abl-tier",
}

// figures are the experiments that measure one figure of per-system series.
var figures = map[string]func(experiments.Options) *experiments.Figure{
	"fig6a": experiments.Fig6a, "fig6b": experiments.Fig6b,
	"fig6c": experiments.Fig6c, "fig6d": experiments.Fig6d,
	"fig7a": experiments.Fig7a, "fig7b": experiments.Fig7b,
	"fig7c": experiments.Fig7c, "fig7d": experiments.Fig7d,
	"fig8a": experiments.Fig8a, "fig8b": experiments.Fig8b,
	"abl-ht": experiments.AblationHashTable, "abl-sort": experiments.AblationSort,
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids, or 'all' ("+strings.Join(allExperiments, ", ")+")")
		rows       = flag.Int("rows", 1_000_000, "rows for the micro-benchmarks (the paper uses 10000000)")
		reps       = flag.Int("reps", experiments.Reps, "repetitions per measurement (median is reported)")
		sf         = flag.Float64("sf", 0.05, "TPC-H scale factor (the paper uses 1.0)")
		systems    = flag.String("systems", strings.Join(experiments.DefaultSystems, ","), "systems to measure")
		full       = flag.Bool("full", false, "paper-scale settings (10M rows, SF 0.5) — slow on the VM substrate")
	)
	flag.Parse()

	if *full {
		*rows = 10_000_000
		*sf = 0.5
	}
	opts := experiments.Options{
		Rows:    *rows,
		Reps:    *reps,
		SF:      *sf,
		Systems: strings.Split(*systems, ","),
	}

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = allExperiments
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), opts); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// run measures experiment id and prints its table.
func run(id string, o experiments.Options) error {
	switch id {
	case "fig1":
		return experiments.Fig1(o, os.Stdout)
	case "fig9":
		for _, f := range experiments.Fig9(o) {
			f.Render(os.Stdout)
		}
		return nil
	case "fig10":
		return experiments.Fig10(o, os.Stdout)
	case "abl-rewire":
		experiments.AblationRewiring(o, os.Stdout)
		return nil
	case "abl-tier":
		return experiments.AblationTiers(o, os.Stdout)
	}
	fig, ok := figures[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	fig(o).Render(os.Stdout)
	return nil
}
