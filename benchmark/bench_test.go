package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
)

// The self-test: the program and BENCHMARK.json name the same things, the
// generators are deterministic, every run emits every metric, the counts
// that are functions of the seed repeat, and the span tree is sound. It runs
// every workload at a tiny scale factor for one timed round.

func testConfig() runConfig {
	return runConfig{seed: 1, budget: time.Second, rounds: 1, setups: 1, warmups: 1, probeReps: 1}
}

func tinyWorkloads() []workloadDef {
	defs := append([]workloadDef(nil), workloads...)
	for i := range defs {
		defs[i].sf = 0.0002
	}
	return defs
}

func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: bad name, unit or direction", kind, m.Name)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestShapeGenerator(t *testing.T) {
	e, err := newTracedEnv(tinyWorkloads()[1], testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.queries) != 64 {
		t.Fatalf("adhoc-small has %d shapes, want 64", len(e.queries))
	}
	fps := map[string]string{}
	for _, tq := range e.queries {
		q, p, err := e.bind(tq.src)
		if err != nil {
			t.Fatal(err)
		}
		fp := core.Fingerprint(q, p, e.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
		if other, dup := fps[fp]; dup {
			t.Errorf("shapes share a plan fingerprint:\n%s\n%s", other, tq.src)
		}
		fps[fp] = tq.src
	}
	same := smallShapes(rand.New(rand.NewSource(1)))
	other := smallShapes(rand.New(rand.NewSource(2)))
	for i, tq := range e.queries {
		if same[i] != tq.src {
			t.Fatalf("shape %d differs between two generations from seed 1", i)
		}
	}
	if strings.Join(same, "\n") == strings.Join(other, "\n") {
		t.Error("seeds 1 and 2 generate the same shapes")
	}
}

// TestRunsEmitEveryMetric runs every workload untraced and traced and
// requires exactly the metrics the program declares, each with its unit and a
// finite value, zero failures, and a trace file that loads.
func TestRunsEmitEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, def := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			var rec runRecord
			var err error
			defs := endToEnd
			if traced {
				defs = perLayer
				rec, err = runTraced(def, testConfig(), dir, io.Discard) // fails on an unsound span tree
			} else {
				rec, err = runUntraced(def, testConfig())
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d (%s)", def.name, traced, rec.Attempted, rec.Failed, rec.FirstFailure)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", def.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
					t.Errorf("%s traced=%v: metric %s = %+v (declared unit %s)", def.name, traced, d.name, m, d.unit)
				}
			}
		}
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+def.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load: %v (%d events)", def.name, err, len(tr.TraceEvents))
		}
	}
}

// TestCountsRepeat drives a traced round of every workload in two fresh
// environments: the counts that are functions of the seed must be equal.
// Morsel counts are not among them: the liftoff/turbofan split depends on
// when tier-up lands, and two workers split a scan differently each time.
func TestCountsRepeat(t *testing.T) {
	keys := []string{"core.module_bytes", "core.join_partitions_merged", "source_bytes",
		"plancache.hit.queries", "plancache.miss.queries", "workers",
		"autopilot.choice.volcano", "autopilot.choice.vectorized", "autopilot.choice.liftoff", "autopilot.choice.adaptive"}
	for _, def := range tinyWorkloads() {
		var runs [2]map[string]float64
		for i := range runs {
			e, err := newTracedEnv(def, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := e.round(); failed > 0 {
				t.Fatalf("%s: %s", def.name, e.firstFailure)
			}
			if err := e.rec.check(); err != nil {
				t.Errorf("%s: span tree: %v", def.name, err)
			}
			runs[i] = e.counts
		}
		for _, k := range keys {
			if runs[0][k] != runs[1][k] {
				t.Errorf("%s: %s = %v, then %v", def.name, k, runs[0][k], runs[1][k])
			}
		}
	}
}

func TestRecorderCheck(t *testing.T) {
	r := newRecorder()
	root := r.begin("query")
	child := r.begin("layer")
	r.end(child)
	r.end(root)
	r.derive(child, "phase", 0, time.Hour) // clipped to the parent
	if err := r.check(); err != nil {
		t.Fatalf("sound tree rejected: %v", err)
	}
	self := r.selfTimes()
	if self[child] != 0 || self[root] < 0 {
		t.Errorf("self times %v: the derived span should cover its parent exactly", self)
	}
	r.spans[child].Parent = 7
	if r.check() == nil {
		t.Error("orphan span accepted")
	}
}

func TestCompare(t *testing.T) {
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64, bytes float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			recs := []runRecord{
				{Workload: "adhoc-small", Seed: seed, Metrics: map[string]metricValue{"p50_ms": {p50 + float64(seed)/100, "ms"}}},
				{Workload: "adhoc-small", Seed: seed, Trace: true, Metrics: map[string]metricValue{"core.module_bytes": {bytes, "B"}}},
			}
			if err := appendReport(path, header{Seed: seed}, recs); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow, odd := write("a.json", 100, 5000), write("same.json", 101, 5000), write("slow.json", 150, 5000), write("odd.json", 100, 5001)
	var out bytes.Buffer
	if code := compareReports(a, same, &out, io.Discard); code != 0 || !strings.Contains(out.String(), "| ok |") {
		t.Errorf("1 %% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(a, slow, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("50 %% slower (no bound may exceed 25 %%): exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(a, odd, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "count mismatch") {
		t.Errorf("module bytes differ: exit %d\n%s", code, out.String())
	}
	b, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(b)), "\"claim\": null\n}") {
		t.Errorf("report does not end with \"claim\": null:\n%s", b[max(0, len(b)-80):])
	}
}
