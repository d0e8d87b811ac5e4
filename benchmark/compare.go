package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place the regression bounds live.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root under `go run ./benchmark`) or its parent (under `go test`).
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// exactCounts are the per-layer metrics that are pure functions of the seed
// and must agree exactly between two runs of it. The liftoff/turbofan morsel
// split is not among them: it depends on when background tier-up lands.
var exactCounts = []string{
	"core.module_bytes", "core.groups_merged", "core.join_partitions_merged",
	"plancache.hits", "plancache.misses", "plancache.evictions",
	"autopilot.choice.volcano", "autopilot.choice.vectorized",
	"autopilot.choice.liftoff", "autopilot.choice.adaptive",
	"server.rejected",
}

// quartiles returns the first, second and third quartile of vs the way
// Python's statistics.quantiles(vs, n=4) does (exclusive method). It needs
// two values at least.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the interquartile range as a share of the median, the driver's
// measure of how far a set of runs disagrees with itself; -1 when the set is
// too small to have one.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return -1
	}
	q1, _, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

func loadReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values collects one metric of one workload from a report's untraced runs.
func (rep report) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rep.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// compareReports gates set B against set A: for every workload and
// end-to-end metric, B's median may be worse than A's by at most the
// metric's bound. A cell whose own run-to-run spread exceeds the bound is
// unresolved, not passed. Exact counts of traced runs with the same seed must
// be equal. It returns 1 on a regression or a count mismatch.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s commit %s   B: %s commit %s\n\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintln(stdout, "| workload | metric | A median | B median | B worse by | bound | spread A | spread B | n | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %.4g | %.4g | %+.1f %% | %.0f %% | %s | %s | %d/%d | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*m.Bound, pct(sa), pct(sb), len(va), len(vb), verdict)
		}
	}

	pairs, mismatches := 0, 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if !ra.Trace || !rb.Trace || ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Rounds != rb.Rounds {
				continue
			}
			pairs++
			for _, name := range exactCounts {
				if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
					fmt.Fprintf(stdout, "\ncount mismatch: %s seed %d %s: %v vs %v", ra.Workload, ra.Seed, name, x, y)
					mismatches++
				}
			}
		}
	}
	if pairs > 0 {
		fmt.Fprintf(stdout, "\nexact counts: %d pairs of traced runs (same workload, seed and rounds), %d mismatches\n", pairs, mismatches)
	}
	if mismatches > 0 {
		code = 1
	}
	return code
}

func pct(share float64) string {
	if share < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f %%", 100*share)
}
