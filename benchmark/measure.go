package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. endToEnd and perLayer are the
// program's side of BENCHMARK.json; the self-test fails when they drift.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"alloc_kb_per_query", "KiB"},
	{"setup_s", "s"},
}

type runConfig struct {
	seed   int64
	budget time.Duration // timed duration per workload
	rounds int           // when > 0, exactly this many rounds instead
	// setups is how often a run sets its workload up: setup_s is the median
	// and the last instance is the one measured. warmups is the number of
	// untimed rounds that end each set-up, probeReps how often a probe of
	// the traced pass repeats a measurement before taking the median. The
	// command fixes all three (defaultConfig); only the self-test shrinks
	// them.
	setups, warmups, probeReps int
}

func defaultConfig(seed int64, seconds, rounds int) runConfig {
	return runConfig{
		seed: seed, budget: time.Duration(seconds) * time.Second, rounds: rounds,
		setups: 3, warmups: 3, probeReps: 3,
	}
}

// limit ends a timed section after a fixed number of rounds or at a deadline.
type limit struct {
	rounds   int
	deadline time.Time
}

func (c runConfig) limit(share time.Duration) limit {
	return limit{rounds: c.rounds, deadline: time.Now().Add(share)}
}

// done reports whether a loop that has completed n rounds should stop.
func (l limit) done(n int) bool {
	if l.rounds > 0 {
		return n >= l.rounds
	}
	return n > 0 && !time.Now().Before(l.deadline)
}

// measurement is what a timed section yields.
type measurement struct {
	samples   []time.Duration // one latency per round
	timed     time.Duration   // wall time the clock ran
	attempted int
	failed    int // errors + rejections + results differing from the reference
	rejected  int // the 429/503/504 share of failed (serving only)
	// firstFailure describes the first failed query, for the operator.
	firstFailure string
	allocBytes   uint64
}

func runUntraced(def workloadDef, cfg runConfig) (runRecord, error) {
	var inst instance
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		fence()
		t := time.Now()
		var err error
		if inst, err = setup(def, cfg); err != nil {
			return runRecord{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t))
	}
	defer inst.close()
	m := timed(inst, cfg.limit(cfg.budget))

	queries := float64(m.attempted)
	rec := newRecord(def.name, cfg.seed, false, inst, m)
	rec.Metrics = map[string]metricValue{
		"p50_ms":             {ms(quantile(m.samples, 0.50)), "ms"},
		"p90_ms":             {ms(quantile(m.samples, 0.90)), "ms"},
		"throughput_qps":     {float64(m.attempted-m.failed) / m.timed.Seconds(), "1/s"},
		"alloc_kb_per_query": {float64(m.allocBytes) / 1024 / queries, "KiB"},
		"setup_s":            {quantile(setups, 0.50).Seconds(), "s"},
	}
	rec.Extra = map[string]metricValue{
		"p99_ms":     {ms(quantile(m.samples, 0.99)), "ms"},
		"fail_ratio": {float64(m.failed) / queries, "ratio"},
		"rejected":   {float64(m.rejected), "count"},
	}
	return rec, nil
}

func newRecord(name string, seed int64, traced bool, inst instance, m measurement) runRecord {
	return runRecord{
		Workload: name, Seed: seed, Trace: traced,
		Rounds: len(m.samples), Queries: inst.perRound(),
		Attempted: m.attempted, Failed: m.failed, Correct: m.failed == 0,
		FirstFailure: m.firstFailure,
	}
}

// fence collects garbage and returns freed memory to the system, so a timed
// section never inherits the previous one's heap.
func fence() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timed measures one section between two fences and two MemStats reads.
func timed(inst instance, lim limit) measurement {
	fence()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := inst.measure(lim)
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func printTable(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "\n== %s  seed=%d  rounds=%d × %d queries  attempted=%d failed=%d ==\n",
		rec.Workload, rec.Seed, rec.Rounds, rec.Queries, rec.Attempted, rec.Failed)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(rec.Extra))
	for n := range rec.Extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if strings.HasPrefix(n, "self_share.") {
			continue // printed as the self-time table
		}
		fmt.Fprintf(w, "  %-42s %14.4f %s  (ungated)\n", n, rec.Extra[n].Value, rec.Extra[n].Unit)
	}
}
