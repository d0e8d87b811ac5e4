// Package autopilot sizes BackendAuto's execution: auto always compiles
// (baseline code at once, background tier-up, exactly BackendWasm), and the
// autopilot adds the morsel worker-pool size. The paper's two-tier engine
// with background tier-up is what makes an interpreter band unnecessary: a
// cold compile is paid once per query shape (the plan cache keeps the
// module), and from then on compiled code is faster than either interpreter
// at every size the benchmark runs (DESIGN §14).
//
// The cost model is deliberately small: a single scalar "work" estimate in
// row units, derived from the planner's cardinality estimates (ProfilePlan),
// scaled by a bound LIMIT and mapped to a worker grant (Knobs). Cold
// decisions use estimates alone; warm decisions additionally consult the
// execution feedback the plan cache stores per fingerprint
// (plancache.Feedback), so a cold estimate that was wrong corrects itself on
// the next run of the same shape.
//
// Decisions are a pure function of (profile, feedback, knobs): no clocks,
// no randomness, no global state. Given the same fingerprint, feedback
// slot, and catalog statistics, the decision is always the same — the
// property the byte-identical differential corpora rely on.
//
// Layering: autopilot sits beside the planner and below the public API; it
// may import only plan, plancache, and obs (`make lint-layers` checks).
package autopilot

import (
	"fmt"
	"math"

	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/plancache"
)

// Choice names an execution strategy. Decide returns ChoiceAdaptive only;
// the other three name the strategies auto once chose between (volcano and
// vectorized interpretation, baseline-only compilation), which stay as
// explicit backends and as labels of the benchmark's decision counters.
type Choice int

const (
	ChoiceVectorized Choice = iota
	ChoiceLiftoff
	// ChoiceAdaptive compiles baseline code and tiers up in the background.
	ChoiceAdaptive
	ChoiceVolcano
)

func (c Choice) String() string {
	switch c {
	case ChoiceVolcano:
		return "volcano"
	case ChoiceVectorized:
		return "vectorized"
	case ChoiceLiftoff:
		return "liftoff"
	case ChoiceAdaptive:
		return "adaptive"
	}
	return "unknown"
}

// Profile is the cost-relevant shape of a physical plan, extracted once per
// decision by ProfilePlan from the planner's (sanitized, finite, ≥1)
// cardinality estimates.
type Profile struct {
	// ScanRows is the total raw base-table cardinality — rows the scan
	// pipelines touch regardless of filter selectivity. This term uses
	// catalog row counts, not estimates, so it is exact.
	ScanRows float64
	// TailRows is the estimate-derived downstream work in row units: join
	// build/probe/output, group hashing input and output, n·log₂n sort
	// work, and final result emission.
	TailRows float64
	// OutRows is the root estimate — what the planner thinks the result
	// cardinality is. Feedback corrections compare it to observed rows.
	OutRows float64
	// Limit is the query's effective LIMIT (bound placeholders already
	// resolved by the caller; -1 when absent), and PreLimitRows the
	// estimate entering the limit — together they model the scan
	// short-circuit a limit enables.
	Limit        int64
	PreLimitRows float64
	// Shape flags for the worker grant.
	Joins     int
	Grouped   bool
	GroupKeys int
	Sorted    bool
}

// ProfilePlan walks a physical plan and accumulates its cost profile.
func ProfilePlan(root plan.Node) Profile {
	p := Profile{Limit: -1, OutRows: root.Rows()}
	profileNode(root, &p)
	return p
}

func profileNode(n plan.Node, p *Profile) {
	switch x := n.(type) {
	case *plan.Scan:
		p.ScanRows += float64(x.Table.Rows())
	case *plan.HashJoin:
		p.Joins++
		p.TailRows += x.Build.Rows() + x.Probe.Rows() + x.Rows()
		profileNode(x.Build, p)
		profileNode(x.Probe, p)
	case *plan.Group:
		p.Grouped = true
		p.GroupKeys = len(x.Keys)
		p.TailRows += x.Input.Rows() + x.Rows()
		profileNode(x.Input, p)
	case *plan.Sort:
		p.Sorted = true
		in := x.Input.Rows()
		p.TailRows += in * math.Log2(in+1)
		profileNode(x.Input, p)
	case *plan.Limit:
		p.Limit = x.N
		p.PreLimitRows = x.Input.Rows()
		profileNode(x.Input, p)
	case *plan.Project:
		p.TailRows += x.Rows() // result decode and emission
		profileNode(x.Input, p)
	}
}

// Knobs size the worker grant, in estimated row-work units.
type Knobs struct {
	// At or above ParallelAbove grant 2 workers, at 4× grant 4, at 16×
	// grant 8 — capped by MaxWorkers.
	ParallelAbove float64
	MaxWorkers    int
	// FeedbackClamp bounds the observed/estimated row-count ratio applied
	// as a correction, keeping one pathological observation from swinging
	// decisions unboundedly.
	FeedbackClamp float64
}

// DefaultKnobs returns the tuned defaults.
func DefaultKnobs() Knobs {
	return Knobs{
		ParallelAbove: 65536,
		MaxWorkers:    8,
		FeedbackClamp: 64,
	}
}

// Decision is one resolved auto choice.
type Decision struct {
	Choice Choice
	// Workers is the morsel worker-pool size to request (1 = serial).
	Workers int
	// Work is the scalar cost estimate the worker grant was sized from.
	Work float64
	// Corrected reports that stored feedback changed the work estimate.
	Corrected bool
	// Reason is a human-readable one-liner for EXPLAIN ANALYZE and traces.
	Reason string
}

// Decide estimates a plan profile's work (corrected by optional stored
// feedback) and sizes its worker grant; the strategy is always adaptive. It
// is a pure function — see the package comment for why that matters.
func Decide(p Profile, fb *plancache.Feedback, k Knobs) Decision {
	scan, tail := p.ScanRows, p.TailRows

	// A LIMIT over a bare scan short-circuits: execution stops once the
	// limit is hit, so the expected scan volume is the fraction of the
	// estimated pre-limit output the limit keeps. Sorts, groups, and joins
	// must consume their whole input first, so only the no-tail shape
	// scales down. This term is why the estimate depends on a bound LIMIT
	// parameter — and why estimating before bind would be wrong.
	if p.Limit >= 0 && !p.Sorted && !p.Grouped && p.Joins == 0 && p.PreLimitRows >= 1 {
		if frac := float64(p.Limit) / p.PreLimitRows; frac < 1 {
			scan *= frac
			tail *= frac
		}
	}

	// Feedback correction: scale the estimate-derived tail by the observed
	// result cardinality relative to the estimate that observation was made
	// against — the run's own, which under another binding of the same
	// prepared shape (LIMIT ?) is not this one's. Only for unaggregated
	// plans — a grouped query's result counts groups, not processed rows,
	// so it says nothing about the work estimate (whose scan term is exact
	// catalog data anyway). The clamp bounds the swing; the correction is
	// deterministic because the feedback slot is part of the decision input.
	corrected := false
	est := p.OutRows
	if fb != nil && fb.EstRows > 0 {
		est = fb.EstRows
	}
	if fb != nil && fb.Rows > 0 && !p.Grouped && est >= 1 {
		ratio := float64(fb.Rows) / est
		if ratio > k.FeedbackClamp {
			ratio = k.FeedbackClamp
		}
		if ratio < 1/k.FeedbackClamp {
			ratio = 1 / k.FeedbackClamp
		}
		if ratio != 1 {
			tail *= ratio
			corrected = true
		}
	}

	work := scan + tail
	reason := fmt.Sprintf("est-work %.0f rows", work)
	if corrected {
		reason += ", feedback-corrected"
	}
	return Decision{Choice: ChoiceAdaptive, Workers: workersFor(work, p, fb, k), Work: work, Corrected: corrected, Reason: reason}
}

// workersFor sizes the worker-pool request. Workers are granted only for
// shapes whose parallel merge is order-deterministic — sorted output (the
// run merge fixes the order) or keyless aggregation (one row) — so auto
// results stay byte-identical to serial execution; and LIMIT without ORDER
// BY never parallelizes (mirroring the executor's classifier). A feedback
// slot recording an intrinsic serial fallback stops the request entirely:
// the classifier would refuse it again every time.
func workersFor(work float64, p Profile, fb *plancache.Feedback, k Knobs) int {
	orderStable := p.Sorted || (p.Grouped && p.GroupKeys == 0)
	if !orderStable {
		return 1
	}
	if p.Limit >= 0 && !p.Sorted {
		return 1
	}
	if fb != nil && fb.SerialFallback != "" && fb.FallbackIntrinsic {
		return 1
	}
	w := 1
	switch {
	case work >= 16*k.ParallelAbove:
		w = 8
	case work >= 4*k.ParallelAbove:
		w = 4
	case work >= k.ParallelAbove:
		w = 2
	}
	if w > k.MaxWorkers {
		w = k.MaxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Record stamps the decision on the query trace (the EXPLAIN ANALYZE and
// query-log surface) and the process-wide per-choice decision counter.
func (d Decision) Record(tr *obs.Trace) {
	corr := int64(0)
	if d.Corrected {
		corr = 1
	}
	tr.Event(obs.EvAutopilot,
		obs.S("choice", d.Choice.String()),
		obs.I("workers", int64(d.Workers)),
		obs.I("corrected", corr),
		obs.S("reason", d.Reason))
	obs.Default.CounterWith(obs.MetricAutopilotDecisions,
		obs.Label{Key: "choice", Val: d.Choice.String()}).Add(1)
}
