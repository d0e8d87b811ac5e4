package experiments

import (
	"strings"
	"testing"
	"time"

	"wasmdb/internal/core"
	"wasmdb/internal/tpch"
	"wasmdb/internal/workload"
)

// tiny options keep the experiment machinery tests fast.
func tinyOpts() Options {
	return Options{Rows: 5000, Reps: 1, SF: 0.002}
}

func TestRunOnAllSystemsAgree(t *testing.T) {
	cat, err := workload.Catalog(workload.Spec{Name: "t", Rows: 2000, IntCols: 2, FloatCols: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := "SELECT COUNT(*) FROM t WHERE i0 < 0"
	for _, sys := range append(DefaultSystems, "liftoff", "turbofan", "adaptive") {
		tm, err := RunOn(cat, src, sys, core.Style{}, false)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if tm.Execute <= 0 {
			t.Errorf("%s: no execution time", sys)
		}
	}
	if _, err := RunOn(cat, src, "nonsense", core.Style{}, false); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestRunOnCountsEachPhaseOnce: on the single-tier systems every compile
// runs before execution, so the phases, each measured once, fit inside the
// measured wall time. Execute holding a compile would break the bound.
func TestRunOnCountsEachPhaseOnce(t *testing.T) {
	cat, err := tpch.Generate(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"liftoff", "turbofan"} {
		tm, err := RunOn(cat, tpch.Queries["Q1"], sys, core.Style{}, true)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if sum := tm.Translate + tm.Liftoff + tm.Turbofan + tm.Execute; sum > tm.Total {
			t.Errorf("%s: translate %v + liftoff %v + turbofan %v + execute %v = %v exceeds total %v",
				sys, tm.Translate, tm.Liftoff, tm.Turbofan, tm.Execute, sum, tm.Total)
		}
		if tm.Liftoff+tm.Turbofan == 0 || tm.Execute <= 0 {
			t.Errorf("%s: missing a phase: %+v", sys, tm)
		}
	}
}

func TestFig6Machinery(t *testing.T) {
	o := tinyOpts()
	o.Systems = []string{"mutable", "vectorized"}
	fig := Fig6a(o)
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(fig.XTicks) {
			t.Errorf("%s: %d points for %d ticks", s.System, len(s.Points), len(fig.XTicks))
		}
	}
}

func TestFig10Machinery(t *testing.T) {
	o := tinyOpts()
	var sb strings.Builder
	if err := Fig10(o, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range tpch.QueryIDs {
		if !strings.Contains(out, id) {
			t.Errorf("missing %s in output", id)
		}
	}
	if !strings.Contains(out, "mutable") || !strings.Contains(out, "hyper") {
		t.Error("missing systems")
	}
}

func TestFig1Machinery(t *testing.T) {
	o := tinyOpts()
	var sb strings.Builder
	if err := Fig1(o, &sb); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"liftoff", "turbofan", "adaptive", "hyper"} {
		if !strings.Contains(sb.String(), sys) {
			t.Errorf("missing %s", sys)
		}
	}
}

func TestAblationMachinery(t *testing.T) {
	o := tinyOpts()
	fig := AblationSort(o)
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	var sb strings.Builder
	AblationRewiring(o, &sb)
	if !strings.Contains(sb.String(), "rewire") {
		t.Error("rewiring ablation output")
	}
	if err := AblationTiers(o, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	vals := []time.Duration{5, 1, 9}
	i := 0
	got := Median(3, func() time.Duration {
		d := vals[i]
		i++
		return d
	})
	if got != 5 {
		t.Errorf("median = %v", got)
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("demo", "x", "a", "b")
	f.Add("sys1", time.Millisecond)
	f.Add("sys2", 2*time.Millisecond)
	f.Add("sys1", 3*time.Millisecond)
	f.Add("sys2", 4*time.Millisecond)
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "sys1", "sys2", "1.000ms", "4.000ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
