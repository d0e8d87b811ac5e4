package obs

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// recordTwoWorkerQuery records what a warm two-worker GROUP BY over TPC-H
// lineitem records (auto-mixed's last shape, served from the plan cache on
// tier-2 code): 11 spans, 15 events with 41 arguments between them, the 15
// Ctr* counters and the 4 per-worker counters.
func recordTwoWorkerQuery(tr *Trace) {
	for _, name := range []string{SpanParse, SpanSema, SpanPlan} {
		tr.Begin(name).End()
	}
	tr.Event(EvAutopilot, S("choice", "adaptive"), I("workers", 2), I("corrected", 0), S("reason", "est-work 267338 rows"))
	tr.Event(EvPlanCache, S("result", "hit"), S("fingerprint", "e98e8e4c6813"), S("tier", "turbofan"))
	tr.Begin(SpanRewire).End(I("columns", 6), I("pages_mapped", 84), I("workers", 2))
	tr.Begin(SpanInstantiate).End(I("workers", 2))
	tr.Event(EvParallel, I("workers", 2))
	for i, fn := range []int64{16, 16, 7, 7, 4, 5, 6} {
		tr.Event(EvTierSwitch, I("func", fn), I("morsel", int64(i)))
	}
	tr.Begin(SpanMerge).End(I("groups", 7))
	tr.Event(EvGroupMerge, I("groups", 7), I("workers", 2))
	for i, fn := range []int64{8, 14, 14, 15} {
		tr.Event(EvTierSwitch, I("func", fn), I("morsel", int64(10+i)))
	}
	tr.Begin(SpanPipeline+"pipeline_0").End(I("rows", 120014), I("workers", 2))
	tr.Begin(SpanPipeline + "pipeline_1").End(I("rows", 1024))
	tr.Begin(SpanPipeline + "pipeline_2").End()
	tr.Begin(SpanPipeline + "pipeline_3").End(I("rows", 7))
	tr.Begin(SpanExecute).End()
	for w := 0; w < 2; w++ {
		tr.Set(WorkerCtr(w, CtrMorselsLiftoff), 0)
		tr.Set(WorkerCtr(w, CtrMorselsTurbofan), 6)
	}
	for i, name := range []string{CtrMorselsLiftoff, CtrMorselsTurbofan, CtrTurbofanFailed,
		CtrModuleBytes, CtrFuelUsed, CtrPeakMemBytes, CtrCommittedMemBytes, CtrPagesRecycled,
		CtrPagesFresh, CtrResultRows, CtrWorkers, CtrPipelinesParallel, CtrPipelinesSerial,
		CtrGroupsMerged, CtrJoinPartitionsMerged} {
		tr.Set(name, int64(i))
	}
}

// readTwoWorkerQuery reads the trace as the query path does: the public
// Stats (phase durations, counters, serial-fallback and autopilot events),
// the latency histogram's tier and plan-cache labels, the autopilot's
// feedback (execute time, first tier switch) and the query-log record.
func readTwoWorkerQuery(tr *Trace) (sum int64) {
	for _, name := range []string{SpanParse, SpanSema, SpanPlan, SpanCodegen, SpanLiftoff,
		SpanTurbofan, SpanRewire, SpanInstantiate, SpanExecute} {
		sum += int64(tr.Dur(name))
	}
	for _, name := range []string{CtrMorselsLiftoff, CtrMorselsTurbofan, CtrTurbofanFailed,
		CtrModuleBytes, CtrFuelUsed, CtrPeakMemBytes, CtrCommittedMemBytes, CtrWorkers,
		CtrPipelinesParallel, CtrPipelinesSerial, CtrGroupsMerged, CtrJoinPartitionsMerged} {
		sum += tr.Value(name)
	}
	tr.EachEvent(func(e Event) {
		if e.Name == EvSerialFallback || e.Name == EvAutopilot {
			sum += int64(len(e.Args))
		}
	})
	sum += int64(len(TierOf(tr)) + len(PlanCacheOf(tr)))
	sum += int64(tr.Dur(SpanExecute))
	tr.EachEvent(func(e Event) {
		if e.Name == EvTierSwitch {
			sum += e.Args[1].Val
		}
	})
	rec := RecordFromTrace(tr)
	return sum + int64(rec.Rows)
}

// TestWarmQueryTraceExactAllocs is an exact allocation gate on the
// always-on trace: creating a trace, recording a warm two-worker query into
// it and reading it back as the query path does allocates at most 8 objects
// — the trace, one growth of its records and one chunk of arguments past
// its inline storage, and the four per-worker counter names with the list
// that holds them. Before the trace owned its records' arguments and kept
// its counters in a table, the same work allocated 46 objects: a counter
// map, every variadic argument list, the span and event slices' growth, and
// an events snapshot per reader.
func TestWarmQueryTraceExactAllocs(t *testing.T) {
	const budget = 8
	allocs := testing.AllocsPerRun(100, func() {
		tr := NewTrace()
		recordTwoWorkerQuery(tr)
		readTwoWorkerQuery(tr)
	})
	if allocs > budget {
		t.Errorf("recording and reading a warm two-worker query's trace allocates %v objects, budget %d", allocs, budget)
	} else {
		t.Logf("recording and reading a warm two-worker query's trace: %v allocations (budget %d)", allocs, budget)
	}
}

// TestTraceStorageRoundTrip: what Spans, Events and EachEvent return is what
// was recorded, in order, past the trace's inline storage too — names,
// arguments, durations, and times to the nanosecond relative to the trace's
// start — and counters read back whether they have a table slot or not.
func TestTraceStorageRoundTrip(t *testing.T) {
	tr := NewTrace()
	var wantSpans []Span
	var wantEvents []Event
	for i := 0; i < 100; i++ {
		args := make([]Arg, i%5)
		for k := range args {
			args[k] = I(fmt.Sprint("k", k), int64(i*10+k))
		}
		if i%5 == 1 {
			args = append(args, S("s", fmt.Sprint("v", i)))
		}
		if len(args) == 0 {
			args = nil
		}
		at := tr.StartTime().Add(time.Duration(i) * time.Microsecond)
		if i%3 == 0 {
			tr.Event(fmt.Sprint("ev", i), args...)
			wantEvents = append(wantEvents, Event{Name: fmt.Sprint("ev", i), Args: args})
		} else {
			tr.AddSpan(fmt.Sprint("sp", i), at, time.Duration(i), args...)
			wantSpans = append(wantSpans, Span{Name: fmt.Sprint("sp", i), Start: at, Dur: time.Duration(i), Args: args})
		}
	}
	spans := tr.Spans()
	if len(spans) != len(wantSpans) {
		t.Fatalf("%d spans, want %d", len(spans), len(wantSpans))
	}
	for i, sp := range spans {
		w := wantSpans[i]
		if sp.Name != w.Name || sp.Dur != w.Dur || !reflect.DeepEqual(sp.Args, w.Args) ||
			sp.Start.Sub(tr.StartTime()) != w.Start.Sub(tr.StartTime()) {
			t.Errorf("span %d = %+v, want %+v", i, sp, w)
		}
	}
	events := tr.Events()
	if len(events) != len(wantEvents) {
		t.Fatalf("%d events, want %d", len(events), len(wantEvents))
	}
	last := time.Duration(-1)
	i := 0
	tr.EachEvent(func(e Event) {
		if e.Name != events[i].Name || !reflect.DeepEqual(e.Args, events[i].Args) || !e.Time.Equal(events[i].Time) {
			t.Errorf("EachEvent's event %d = %+v, Events' %+v", i, e, events[i])
		}
		i++
	})
	for i, ev := range events {
		w := wantEvents[i]
		if ev.Name != w.Name || !reflect.DeepEqual(ev.Args, w.Args) {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
		if at := ev.Time.Sub(tr.StartTime()); at < last {
			t.Errorf("event %d at %v, before the previous one at %v", i, at, last)
		} else {
			last = at
		}
	}
	if got := tr.Dur("sp98"); got != 98 {
		t.Errorf("Dur(sp98) = %v, want 98ns", got)
	}

	tr.Add(CtrFuelUsed, 5)
	tr.Add(CtrFuelUsed, 7)
	tr.Set(WorkerCtr(3, CtrMorselsTurbofan), 9)
	tr.Add("custom", 2)
	tr.Add("custom", 3)
	if v := tr.Value(CtrFuelUsed); v != 12 {
		t.Errorf("%s = %d, want 12", CtrFuelUsed, v)
	}
	if v := tr.Value(WorkerCtr(3, CtrMorselsTurbofan)); v != 9 {
		t.Errorf("worker counter = %d, want 9", v)
	}
	if v, u := tr.Value("custom"), tr.Value("unset"); v != 5 || u != 0 {
		t.Errorf("custom = %d, unset = %d, want 5 and 0", v, u)
	}
}
