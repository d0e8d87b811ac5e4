package wasmdb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
)

// obsDB builds a single-table database with rows sequential ints, large
// enough to split into many morsels at small morsel sizes.
func obsDB(t *testing.T, rows int) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (0,0)")
	for i := 1; i < rows; i++ {
		fmt.Fprintf(&sb, ",(%d,%d)", i, i%97)
	}
	if err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitFor polls cond until it holds or the deadline passes; the timeout
// keeps an armed fault point from wedging the whole test run.
func waitFor(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestDeterministicTierUp pins the adaptive tier switch with fault points
// instead of racing the compiler: the background turbofan compile is held
// until three morsels ran on baseline code, and morsel four is held until
// optimized code is published. The trace must then show a tier-up at a
// morsel index > 0 and morsels served by both tiers.
func TestDeterministicTierUp(t *testing.T) {
	db := obsDB(t, 8192)
	tr := wasmdb.NewTrace()

	// Hold the first background compile until the query has dispatched
	// three baseline morsels.
	faultpoint.Enable("turbofan-compile", func(int) error {
		waitFor(func() bool { return tr.MorselCount() >= 3 })
		return nil
	})
	defer faultpoint.Disable("turbofan-compile")
	// Hold morsel four until background optimization has fully finished,
	// so the remaining morsels are guaranteed to run optimized.
	faultpoint.Enable("core-morsel", func(hit int) error {
		if hit >= 4 {
			waitFor(func() bool { return tr.Dur(obs.SpanTurbofan) > 0 })
		}
		return nil
	})
	defer faultpoint.Disable("core-morsel")

	res, err := db.Query("SELECT COUNT(*) FROM t WHERE a < 1000000",
		wasmdb.WithTrace(tr), wasmdb.WithMorselRows(1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MorselsLiftoff == 0 || res.Stats.MorselsTurbofan == 0 {
		t.Fatalf("tier split not observed: liftoff=%d turbofan=%d",
			res.Stats.MorselsLiftoff, res.Stats.MorselsTurbofan)
	}

	var sawTierUp bool
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvTierUp {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "morsel" && a.Val > 0 {
				sawTierUp = true
			}
		}
	}
	if !sawTierUp {
		t.Fatalf("no tier-up event with morsel index > 0; events: %+v", tr.Events())
	}
	if !tr.HasEvent(obs.EvTierSwitch) {
		t.Error("no tier-switch event for the first optimized dispatch")
	}
}

// TestExplainAnalyzeJoin: the user-facing profile of a join query must show
// the plan, per-phase timings, per-pipeline breakdown, the tier timeline
// (complete, because tracing drains background compilation), and totals.
func TestExplainAnalyzeJoin(t *testing.T) {
	db := wasmdb.Open()
	for _, stmt := range []string{
		"CREATE TABLE a (k INT, v INT)",
		"CREATE TABLE b (k INT)",
	} {
		if err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	var sa, sb strings.Builder
	sa.WriteString("INSERT INTO a VALUES (0,0)")
	sb.WriteString("INSERT INTO b VALUES (0)")
	for i := 1; i < 2000; i++ {
		fmt.Fprintf(&sa, ",(%d,%d)", i%50, i)
		fmt.Fprintf(&sb, ",(%d)", i%50)
	}
	if err := db.Exec(sa.String()); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	// 2 000 rows are one morsel at the default size, which a first run never
	// tiers up; 512-row morsels leave both scans rows ahead.
	out, err := db.ExplainAnalyze("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", wasmdb.WithMorselRows(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"phases:", "parse", "codegen", "liftoff compile", "execute",
		"pipelines:", "tier timeline:", "queued for tier-up (rows-ahead, 2000 rows)",
		"optimized code published",
		"totals:", "morsels", "module",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// The compile lines carry the instructions each tier emitted, the
	// liftoff one also how many of the module's functions the run compiled
	// on their first call (the turbofan line exists only once the background
	// compile has finished).
	for tier, count := range map[string]string{"liftoff": `[1-9]\d* of [1-9]\d* functions, `, "turbofan": ""} {
		if tier == "turbofan" && !strings.Contains(out, "turbofan compile") {
			continue
		}
		if !regexp.MustCompile(tier + ` compile\s+\S+\s+` + count + `[1-9]\d* instrs`).MatchString(out) {
			t.Errorf("EXPLAIN ANALYZE has no instruction count on the %s compile line:\n%s", tier, out)
		}
	}
}

// TestTraceEventExportFromQuery drives the public WithTrace +
// WriteTraceEvents path and verifies the output is trace_event JSON of the
// shape Perfetto loads.
func TestTraceEventExportFromQuery(t *testing.T) {
	db := obsDB(t, 1000)
	tr := wasmdb.NewTrace()
	if _, err := db.Query("SELECT COUNT(*) FROM t", wasmdb.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wasmdb.WriteTraceEvents(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts < 0 {
			t.Errorf("malformed event %+v", ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{obs.SpanParse, obs.SpanCodegen, obs.SpanExecute} {
		if !names[want] {
			t.Errorf("trace export missing span %q; got %v", want, names)
		}
	}
}

// TestStatsFuelAndPeakMem: the unified Stats surfaces the fuel and memory
// counters — reserved address space and the demand-zero pages actually
// committed — the rewire span says how many pages it mapped, EXPLAIN ANALYZE
// prints both memory figures, and the process-wide registry accumulates them.
func TestStatsFuelAndPeakMem(t *testing.T) {
	db := obsDB(t, 4000)
	tr := wasmdb.NewTrace()
	res, err := db.Query("SELECT COUNT(*) FROM t WHERE a < 1000000", wasmdb.WithFuel(100_000_000), wasmdb.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Stats.CommittedMemBytes; c == 0 || c%65536 != 0 || c >= res.Stats.PeakMemBytes {
		t.Errorf("CommittedMemBytes = %d, want whole pages, non-zero and below the %d reserved", c, res.Stats.PeakMemBytes)
	}
	mapped := int64(-1)
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanRewire {
			for _, a := range sp.Args {
				if a.Key == "pages_mapped" {
					mapped = a.Val
				}
			}
		}
	}
	if mapped < 1 {
		t.Errorf("rewire span pages_mapped = %d, want the scanned column's pages", mapped)
	}
	out, err := db.ExplainAnalyze("SELECT COUNT(*) FROM t WHERE a < 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`peak memory +\d+ KiB reserved, \d+ KiB committed`).MatchString(out) {
		t.Errorf("EXPLAIN ANALYZE lacks the reserved/committed memory line:\n%s", out)
	}
	if res.Stats.FuelUsed <= 0 {
		t.Errorf("FuelUsed = %d on a metered query", res.Stats.FuelUsed)
	}
	if res.Stats.PeakMemBytes == 0 {
		t.Error("PeakMemBytes = 0")
	}
	dump := db.Metrics().Dump()
	for _, want := range []string{
		obs.MetricFuelConsumed, obs.MetricPeakHeapPages, obs.MetricPagesCommitted, obs.MetricMorselLatency,
		obs.MetricCompiles + `{tier="liftoff"}`, obs.MetricQueries + `{backend="` + wasmdb.BackendWasm.String() + `"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}

// TestFaultpointHitsAreTraced: every evaluation of an armed fault point
// must leave an audit record — a point event on the query trace and a
// per-point counter — even when nothing is injected.
func TestFaultpointHitsAreTraced(t *testing.T) {
	db := obsDB(t, 1000)
	faultpoint.Enable("core-morsel", func(int) error { return nil })
	defer faultpoint.Disable("core-morsel")

	hits := obs.Default.CounterWith(obs.MetricFaultpointHits, obs.Label{Key: "point", Val: "core-morsel"})
	before := hits.Value()
	tr := wasmdb.NewTrace()
	if _, err := db.Query("SELECT COUNT(*) FROM t", wasmdb.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	var sawPoint bool
	for _, ev := range tr.Events() {
		if ev.Name != obs.EvFaultpoint {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "point" && a.Str == "core-morsel" {
				sawPoint = true
			}
		}
	}
	if !sawPoint {
		t.Errorf("no faultpoint event for core-morsel on the trace; events: %+v", tr.Events())
	}
	if after := hits.Value(); after <= before {
		t.Errorf("faultpoint hit counter did not advance: %d -> %d", before, after)
	}
}
