package autopilot

import (
	"testing"

	"wasmdb/internal/plancache"
)

func knobs() Knobs { return DefaultKnobs() }

// TestDecideBands: there are no bands. Every profile, however small,
// compiles adaptively; what differs is the work estimate and the grant.
func TestDecideBands(t *testing.T) {
	k := knobs()
	for _, c := range []struct {
		name string
		p    Profile
		work float64
	}{
		{"tiny", Profile{ScanRows: 100, TailRows: 10, OutRows: 100, Limit: -1}, 110},
		{"small", Profile{ScanRows: 2000, TailRows: 100, OutRows: 2000, Limit: -1}, 2100},
		{"mid", Profile{ScanRows: 10000, TailRows: 2000, OutRows: 10000, Limit: -1}, 12000},
		{"large", Profile{ScanRows: 50000, TailRows: 10000, OutRows: 50000, Limit: -1}, 60000},
		{"empty", Profile{Limit: -1}, 0},
	} {
		d := Decide(c.p, nil, k)
		if d.Choice != ChoiceAdaptive || d.Work != c.work || d.Workers != 1 {
			t.Errorf("%s: %+v, want adaptive, work %.0f, 1 worker", c.name, d, c.work)
		}
	}
}

// Workers are granted only to order-stable shapes above the threshold.
func TestWorkerGrant(t *testing.T) {
	k := knobs()
	sorted := Profile{ScanRows: 100000, TailRows: 50000, OutRows: 100000, Limit: -1, Sorted: true}
	if d := Decide(sorted, nil, k); d.Choice != ChoiceAdaptive || d.Workers != 2 {
		t.Errorf("sorted 150k: %+v, want adaptive with 2 workers", d)
	}
	big := sorted
	big.ScanRows, big.TailRows = 4*k.ParallelAbove, 0
	if d := Decide(big, nil, k); d.Workers != 4 {
		t.Errorf("4x threshold: workers %d, want 4", d.Workers)
	}
	big.ScanRows = 16 * k.ParallelAbove
	if d := Decide(big, nil, k); d.Workers != 8 {
		t.Errorf("16x threshold: workers %d, want 8", d.Workers)
	}
	// MaxWorkers caps the grant (the caller lowers it to GOMAXPROCS).
	k2 := k
	k2.MaxWorkers = 2
	if d := Decide(big, nil, k2); d.Workers != 2 {
		t.Errorf("capped: workers %d, want 2", d.Workers)
	}

	// Unordered output does not parallelize — the merge order would differ
	// from serial execution.
	unordered := Profile{ScanRows: 1000000, TailRows: 0, OutRows: 1000000, Limit: -1}
	if d := Decide(unordered, nil, k); d.Workers != 1 {
		t.Errorf("unordered scan: workers %d, want 1", d.Workers)
	}
	// Keyless aggregation emits one row: order-stable.
	agg := Profile{ScanRows: 1000000, TailRows: 1000, OutRows: 1, Limit: -1, Grouped: true}
	if d := Decide(agg, nil, k); d.Workers < 2 {
		t.Errorf("keyless agg: workers %d, want >= 2", d.Workers)
	}
	// LIMIT without ORDER BY never parallelizes (mirrors the executor's
	// classifier).
	lim := Profile{ScanRows: 1000000, TailRows: 1000, OutRows: 1, Limit: 10, Grouped: true, PreLimitRows: 1}
	if d := Decide(lim, nil, k); d.Workers != 1 {
		t.Errorf("limit without sort: workers %d, want 1", d.Workers)
	}
}

// A LIMIT over a bare scan short-circuits execution; the work estimate
// scales with the bound limit value — the reason auto decisions must run
// after parameter binding.
func TestLimitShortCircuit(t *testing.T) {
	k := knobs()
	base := Profile{ScanRows: 60000, TailRows: 60000, OutRows: 4, PreLimitRows: 60000}
	small := base
	small.Limit = 4
	if d := Decide(small, nil, k); d.Work != 8 {
		t.Errorf("limit 4: work %.0f, want 8", d.Work)
	}
	large := base
	large.Limit = 60000
	if d := Decide(large, nil, k); d.Work != 120000 {
		t.Errorf("limit 60000: work %.0f, want 120000", d.Work)
	}
	// Sorts, groups, and joins must consume their whole input: no scaling.
	sorted := small
	sorted.Sorted = true
	if d := Decide(sorted, nil, k); d.Work != 120000 {
		t.Errorf("limit 4 over sort: work %.0f, want 120000", d.Work)
	}
}

// Stored feedback scales the estimate-derived tail by the observed/estimated
// row ratio — but only for unaggregated plans (a grouped result counts
// groups, not processed rows), and clamped.
func TestFeedbackCorrection(t *testing.T) {
	k := knobs()
	// Estimate says ~94 rows; observation says every row qualified.
	p := Profile{ScanRows: 1500, TailRows: 700, OutRows: 94, Limit: -1, Sorted: true}
	cold := Decide(p, nil, k)
	if cold.Work != 2200 || cold.Corrected {
		t.Fatalf("cold: %+v, want work 2200 uncorrected", cold)
	}
	warm := Decide(p, &plancache.Feedback{Rows: 1500}, k)
	if want := 1500 + 700*(1500/94.0); !warm.Corrected || warm.Work != want || warm.Choice != ChoiceAdaptive {
		t.Fatalf("warm: %+v, want corrected adaptive with work %.0f", warm, want)
	}

	// Clamp: a pathological ratio cannot swing the estimate unboundedly.
	ext := Decide(p, &plancache.Feedback{Rows: 94_000_000}, k)
	if ext.Work > p.ScanRows+p.TailRows*k.FeedbackClamp+1 {
		t.Errorf("clamp breached: work %.0f", ext.Work)
	}

	// Grouped plans ignore the rows ratio.
	g := Profile{ScanRows: 60000, TailRows: 60000, OutRows: 4, Limit: -1, Grouped: true, GroupKeys: 2, Sorted: true}
	if d := Decide(g, &plancache.Feedback{Rows: 4}, k); d.Corrected {
		t.Errorf("grouped plan corrected by group-count feedback: %+v", d)
	}
}

// Feedback recording an intrinsic serial fallback stops future worker
// requests for the shape; transient reasons do not.
// The correction compares an observation with the estimate it was made
// against: a LIMIT 4 run that returned its 4 rows leaves a LIMIT 60000
// binding's estimate alone, and a misprediction under one binding corrects
// another by the same ratio.
func TestFeedbackAcrossBindings(t *testing.T) {
	k := knobs()
	large := Profile{ScanRows: 60000, TailRows: 60000, OutRows: 60000, Limit: 60000, PreLimitRows: 60000}
	if d := Decide(large, &plancache.Feedback{Rows: 4, EstRows: 4}, k); d.Corrected || d.Work != 120000 {
		t.Errorf("after a LIMIT 4 run: %+v, want work 120000 uncorrected", d)
	}
	p := Profile{ScanRows: 1500, TailRows: 700, OutRows: 94, Limit: -1, Sorted: true}
	if d := Decide(p, &plancache.Feedback{Rows: 400, EstRows: 100}, k); !d.Corrected || d.Work != 1500+700*4 {
		t.Errorf("4× misprediction under another binding: %+v, want work %d corrected", d, 1500+700*4)
	}
}

func TestIntrinsicFallbackStopsWorkers(t *testing.T) {
	k := knobs()
	p := Profile{ScanRows: 1000000, TailRows: 100000, OutRows: 1000000, Limit: -1, Sorted: true}
	if d := Decide(p, nil, k); d.Workers < 2 {
		t.Fatalf("cold grant: %+v", d)
	}
	intrinsic := &plancache.Feedback{Rows: 1000000, SerialFallback: "float-sum-order", FallbackIntrinsic: true}
	if d := Decide(p, intrinsic, k); d.Workers != 1 {
		t.Errorf("intrinsic fallback: workers %d, want 1", d.Workers)
	}
	transient := &plancache.Feedback{Rows: 1000000, SerialFallback: "worker-slots-exhausted", FallbackIntrinsic: false}
	if d := Decide(p, transient, k); d.Workers < 2 {
		t.Errorf("transient fallback: workers %d, want >= 2", d.Workers)
	}
}

// Decisions are a pure function of (profile, feedback, knobs).
func TestDecideDeterministic(t *testing.T) {
	k := knobs()
	p := Profile{ScanRows: 77777, TailRows: 31337, OutRows: 1234, Limit: 100, PreLimitRows: 5000, Joins: 1, Sorted: true}
	fb := &plancache.Feedback{Rows: 4321, SerialFallback: "limit", FallbackIntrinsic: true}
	first := Decide(p, fb, k)
	for i := 0; i < 100; i++ {
		if d := Decide(p, fb, k); d != first {
			t.Fatalf("iteration %d: %+v != %+v", i, d, first)
		}
	}
}

func TestChoiceStrings(t *testing.T) {
	for c, want := range map[Choice]string{
		ChoiceVolcano:    "volcano",
		ChoiceVectorized: "vectorized",
		ChoiceLiftoff:    "liftoff",
		ChoiceAdaptive:   "adaptive",
		Choice(99):       "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("Choice(%d).String() = %q, want %q", c, got, want)
		}
	}
}
