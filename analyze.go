package wasmdb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wasmdb/internal/obs"
)

// ExplainAnalyze executes the query and returns the physical plan annotated
// with the observed execution profile: per-phase timings, per-pipeline
// execution times, the adaptive tier-switch timeline (which function was
// upgraded at which morsel), and the resource counters. Options apply as in
// Query.
func (db *DB) ExplainAnalyze(src string, opts ...Option) (string, error) {
	planText, err := db.Explain(src)
	if err != nil {
		return "", err
	}
	tr := NewTrace()
	res, err := db.Query(src, append(opts[:len(opts):len(opts)], WithTrace(tr))...)
	if err != nil {
		return "", err
	}
	return renderAnalyze(planText, tr, res.Stats, res.NumRows()), nil
}

func renderAnalyze(planText string, tr *Trace, st Stats, rows int) string {
	var sb strings.Builder
	sb.WriteString(strings.TrimRight(planText, "\n"))
	sb.WriteString("\n\nphases:\n")
	phases := []struct{ label, span string }{
		{"parse", obs.SpanParse},
		{"sema", obs.SpanSema},
		{"plan", obs.SpanPlan},
		{"codegen", obs.SpanCodegen},
		{"decode", obs.SpanDecode},
		{"validate", obs.SpanValidate},
		{"liftoff compile", obs.SpanLiftoff},
		{"turbofan compile", obs.SpanTurbofan},
		{"rewire", obs.SpanRewire},
		{"instantiate", obs.SpanInstantiate},
		{"execute", obs.SpanExecute},
	}
	// The two compile spans carry the instructions the tier emitted, and
	// the liftoff ones how many of the module's functions they compiled: an
	// adaptive module compiles a function on its first call, so k of n.
	instrs, funcs, of := map[string]int64{}, int64(0), int64(0)
	for _, sp := range tr.Spans() {
		for _, a := range sp.Args {
			switch {
			case a.Key == "instrs":
				instrs[sp.Name] += a.Val
			case sp.Name == obs.SpanLiftoff && a.Key == "funcs":
				funcs += a.Val
			case sp.Name == obs.SpanLiftoff && a.Key == "of":
				of = max(of, a.Val)
			}
		}
	}
	for _, p := range phases {
		d := tr.Dur(p.span)
		if d <= 0 {
			continue
		}
		switch n := instrs[p.span]; {
		case p.span == obs.SpanLiftoff && of > 0:
			fmt.Fprintf(&sb, "  %-18s %-10s %d of %d functions, %d instrs\n", p.label, fmtAnalyzeDur(d), funcs, of, n)
		case n > 0:
			fmt.Fprintf(&sb, "  %-18s %-10s %d instrs\n", p.label, fmtAnalyzeDur(d), n)
		default:
			fmt.Fprintf(&sb, "  %-18s %s\n", p.label, fmtAnalyzeDur(d))
		}
	}

	// Per-pipeline execution breakdown, in recorded order.
	var pipes []obs.Span
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, obs.SpanPipeline) {
			pipes = append(pipes, sp)
		}
	}
	if len(pipes) > 0 {
		sb.WriteString("\npipelines:\n")
		for _, sp := range pipes {
			name := strings.TrimPrefix(sp.Name, obs.SpanPipeline)
			rowsArg, workersArg := int64(-1), int64(0)
			arg := map[string]int64{}
			for _, a := range sp.Args {
				switch a.Key {
				case "rows":
					rowsArg = a.Val
				case "workers":
					workersArg = a.Val
				default:
					arg[a.Key] = a.Val
				}
			}
			par := ""
			if workersArg > 1 {
				par = fmt.Sprintf("  [%d workers]", workersArg)
			}
			if slots, ok := arg["slots"]; ok {
				// A join build pipeline carries its barrier's figures.
				par += fmt.Sprintf("  build: %d tuples in %d chunks, %d pages aliased, %d slots %.0f%% full, barrier %s alias + %s finish",
					arg["tuples"], arg["chunks"], arg["pages_aliased"], slots, 100*float64(arg["tuples"])/float64(slots),
					fmtAnalyzeDur(time.Duration(arg["alias_ns"])), fmtAnalyzeDur(time.Duration(arg["finish_ns"])))
			}
			if rowsArg >= 0 {
				fmt.Fprintf(&sb, "  %-18s %-10s %d rows%s\n", name, fmtAnalyzeDur(sp.Dur), rowsArg, par)
			} else {
				fmt.Fprintf(&sb, "  %-18s %s%s\n", name, fmtAnalyzeDur(sp.Dur), par)
			}
		}
	}

	// Tier timeline: functions entering the tier-up queue, background
	// publishes (tier-up) and first optimized dispatches (tier-switch),
	// ordered by time.
	var tiers []obs.Event
	for _, ev := range tr.Events() {
		if ev.Name == obs.EvTierUpQueued || ev.Name == obs.EvTierUp || ev.Name == obs.EvTierSwitch {
			tiers = append(tiers, ev)
		}
	}
	if len(tiers) > 0 {
		sort.SliceStable(tiers, func(i, j int) bool { return tiers[i].Time.Before(tiers[j].Time) })
		sb.WriteString("\ntier timeline:\n")
		for _, ev := range tiers {
			var fn, morsel, rows int64
			var trigger string
			for _, a := range ev.Args {
				switch a.Key {
				case "func":
					fn = a.Val
				case "morsel":
					morsel = a.Val
				case "rows":
					rows = a.Val
				case "trigger":
					trigger = a.Str
				}
			}
			at := fmtAnalyzeDur(ev.Time.Sub(tr.StartTime()))
			switch ev.Name {
			case obs.EvTierUpQueued:
				if rows > 0 {
					fmt.Fprintf(&sb, "  +%-9s func %-3d queued for tier-up (%s, %d rows)\n", at, fn, trigger, rows)
				} else {
					fmt.Fprintf(&sb, "  +%-9s func %-3d queued for tier-up (%s)\n", at, fn, trigger)
				}
			case obs.EvTierUp:
				fmt.Fprintf(&sb, "  +%-9s func %-3d optimized code published (at morsel %d)\n", at, fn, morsel)
			default:
				fmt.Fprintf(&sb, "  +%-9s func %-3d first optimized call (at morsel %d)\n", at, fn, morsel)
			}
		}
	}

	sb.WriteString("\ntotals:\n")
	fmt.Fprintf(&sb, "  backend            %s\n", st.Backend)
	// The autopilot's decision, when the query ran with backend auto.
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvAutopilot {
			continue
		}
		var choice, reason string
		var workers int64
		for _, a := range ev.Args {
			switch a.Key {
			case "choice":
				choice = a.Str
			case "reason":
				reason = a.Str
			case "workers":
				workers = a.Val
			}
		}
		fmt.Fprintf(&sb, "  auto               %s, %d worker(s) — %s\n", choice, workers, reason)
	}
	fmt.Fprintf(&sb, "  rows               %d\n", rows)
	fmt.Fprintf(&sb, "  morsels            %d liftoff / %d turbofan\n", st.MorselsLiftoff, st.MorselsTurbofan)
	if st.ModuleBytes > 0 {
		fmt.Fprintf(&sb, "  module             %d bytes\n", st.ModuleBytes)
	}
	if st.TurbofanFailed > 0 {
		fmt.Fprintf(&sb, "  turbofan failures  %d\n", st.TurbofanFailed)
	}
	if st.FuelUsed > 0 {
		fmt.Fprintf(&sb, "  fuel used          %d\n", st.FuelUsed)
	}
	if st.PeakMemBytes > 0 {
		fmt.Fprintf(&sb, "  peak memory        %d KiB reserved, %d KiB committed\n",
			st.PeakMemBytes/1024, st.CommittedMemBytes/1024)
	}
	if st.Workers > 1 {
		fmt.Fprintf(&sb, "  workers            %d (%d pipelines parallel, %d serial)\n",
			st.Workers, st.PipelinesParallel, st.PipelinesSerial)
	}
	if st.GroupsMerged > 0 {
		fmt.Fprintf(&sb, "  groups merged      %d\n", st.GroupsMerged)
	}
	if st.JoinPartitionsMerged > 0 {
		fmt.Fprintf(&sb, "  join partitions    %d merged\n", st.JoinPartitionsMerged)
	}
	// Plan-cache outcome: whether this execution reused a cached module, and
	// which tier the module dispatched from the first morsel on.
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvPlanCache {
			continue
		}
		var result, fp, tier string
		for _, a := range ev.Args {
			switch a.Key {
			case "result":
				result = a.Str
			case "fingerprint":
				fp = a.Str
			case "tier":
				tier = a.Str
			}
		}
		if result == "hit" {
			fmt.Fprintf(&sb, "  plan cache         hit (fingerprint=%s, tier=%s)\n", fp, tier)
		} else {
			fmt.Fprintf(&sb, "  plan cache         miss (fingerprint=%s)\n", fp)
		}
	}
	// A query that requested parallelism but could not use it says why.
	for _, ev := range tr.Events() {
		if ev.Name == obs.EvSerialFallback {
			for _, a := range ev.Args {
				if a.Key == "reason" {
					fmt.Fprintf(&sb, "  serial fallback    %s\n", a.Str)
				}
			}
		}
	}
	return sb.String()
}

func fmtAnalyzeDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}
