package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/leakcheck"
	"wasmdb/internal/obs"
	"wasmdb/internal/sema"
	"wasmdb/internal/tpch"
)

// smallShapes stands for the repo benchmark's adhoc-small grid on a 1.2 k-row
// lineitem: zero to three predicates, one to three aggregates, ungrouped,
// grouped and ordered, or grouped with a LIMIT, with and without the join to
// orders.
var smallShapes = []string{
	"SELECT COUNT(*) FROM lineitem",
	"SELECT SUM(l_extendedprice * (1 - l_discount)), AVG(l_quantity) FROM lineitem WHERE l_quantity < 24 AND l_discount >= 0.03",
	"SELECT l_returnflag, l_linestatus, COUNT(*), MIN(l_shipdate) FROM lineitem WHERE l_shipdate < DATE '1997-06-01' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
	"SELECT l_shipmode, MAX(l_extendedprice) FROM lineitem WHERE l_shipmode IN ('MAIL', 'SHIP', 'AIR') GROUP BY l_shipmode ORDER BY l_shipmode LIMIT 4",
	"SELECT COUNT(*), SUM(l_tax) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_linenumber <= 3",
	"SELECT o_orderpriority, COUNT(*), AVG(l_discount) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipinstruct <> 'NONE' GROUP BY o_orderpriority ORDER BY o_orderpriority",
	"SELECT o_orderstatus, l_linenumber, SUM(l_quantity), MAX(l_orderkey) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_suppkey >= 2 AND l_tax > 0.02 AND l_shipdate >= DATE '1994-03-01' GROUP BY o_orderstatus, l_linenumber ORDER BY o_orderstatus, l_linenumber LIMIT 5",
	"SELECT l_shipinstruct, MIN(l_partkey), SUM(l_extendedprice * (1 - l_discount)) FROM lineitem WHERE l_shipmode <> 'RAIL' GROUP BY l_shipinstruct ORDER BY l_shipinstruct",
}

// TestTierUpOrderParallelDifferential runs every TPC-H query and the small
// shapes in three tier-up orders — nothing (liftoff only), everything before
// the first morsel (WaitOptimized), and the executor's own order (a cold run
// that queues the pipelines with rows ahead, then a rerun that queues the
// rest) — serially and on two workers, at the default morsel size and at one
// small enough that code is swapped mid-pipeline, and requires one answer.
func TestTierUpOrderParallelDifferential(t *testing.T) {
	type corpus struct {
		sf      float64
		queries []string
		morsels []int
	}
	var tq []string
	for _, id := range tpch.QueryIDs {
		tq = append(tq, tpch.Queries[id])
	}
	for _, c := range []corpus{
		{0.01, tq, []int{DefaultMorselRows, 2048}},
		{0.0002, smallShapes, []int{DefaultMorselRows, 128}},
	} {
		cat, err := tpch.Generate(c.sf, 42)
		if err != nil {
			t.Fatal(err)
		}
		for qi, src := range c.queries {
			for _, morsel := range c.morsels {
				for _, workers := range []int{1, 2} {
					t.Run(fmt.Sprintf("sf%g/q%d/morsel%d/w%d", c.sf, qi, morsel, workers), func(t *testing.T) {
						checkTierOrders(t, cat, src, ExecOptions{MorselRows: morsel, Parallelism: workers})
					})
				}
			}
		}
	}
}

// checkTierOrders runs src in the three tier-up orders under opt.
func checkTierOrders(t *testing.T, cat *catalog.Catalog, src string, opt ExecOptions) {
	t.Helper()
	cq, q := compileOn(t, cat, src)
	ordered := strings.Contains(src, "ORDER BY")
	render := func(r *ResultSet) string {
		if ordered {
			return fmtRows(r)
		}
		return strings.Join(sortedRows(r), "\n")
	}
	run := func(name string, eng *engine.Engine, opt ExecOptions) string {
		t.Helper()
		res, _, err := Execute(cq, q, eng, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return render(res)
	}
	adaptive := engine.New(engine.Config{Tier: engine.TierAdaptive})
	ref := run("nothing", engine.New(engine.Config{Tier: engine.TierLiftoff}), opt)
	first := opt
	first.WaitOptimized = true
	got := map[string]string{"everything first": run("everything first", adaptive, first)}
	mod, err := adaptive.Compile(cq.Bin)
	if err != nil {
		t.Fatal(err)
	}
	own := opt
	own.Precompiled = mod
	got["rows-ahead (cold)"] = run("rows-ahead (cold)", adaptive, own)
	got["rerun"] = run("rerun", adaptive, own)
	if err := mod.WaitOptimized(); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if g != ref {
			t.Errorf("%s differs from tier 1 only:\n%s\nvs\n%s", name, g, ref)
		}
	}
}

// tierEvents returns the func argument of every event named name on tr.
func tierEvents(tr *obs.Trace, name string) []int64 {
	var out []int64
	for _, ev := range tr.Events() {
		if ev.Name != name {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "func" {
				out = append(out, a.Val)
			}
		}
	}
	return out
}

// lineitemScan returns the function index of cq's lineitem scan pipeline.
func lineitemScan(t *testing.T, cq *CompiledQuery, q *sema.Query, mod *engine.Module) int64 {
	t.Helper()
	for _, p := range cq.Pipelines {
		if p.Kind == PipeScanTable && q.Tables[p.TableIdx].Table.Name == "lineitem" {
			fn, ok := mod.ExportedFunc(p.Export)
			if !ok {
				t.Fatalf("pipeline export %s missing", p.Export)
			}
			return int64(fn)
		}
	}
	t.Fatal("no lineitem scan pipeline")
	return 0
}

// TestTierUpQueueOrder: on every cold TPC-H query the lineitem scan pipeline
// is the first function queued — before its first morsel runs — and the
// first one published; a cold run leaves q_init and the merge exports
// unqueued but queues a join finish function that runs more than once (Q3),
// and the rerun queues the rest.
func TestTierUpQueueOrder(t *testing.T) {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tpch.QueryIDs {
		t.Run(id, func(t *testing.T) {
			cq, q := compileOn(t, cat, tpch.Queries[id])
			eng := engine.New(engine.Config{Tier: engine.TierAdaptive})
			mod, err := eng.Compile(cq.Bin)
			if err != nil {
				t.Fatal(err)
			}
			scan := lineitemScan(t, cq, q, mod)
			tr := obs.NewTrace()
			if _, _, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Trace: tr, DrainBackground: true}); err != nil {
				t.Fatal(err)
			}
			queued, published := tierEvents(tr, obs.EvTierUpQueued), tierEvents(tr, obs.EvTierUp)
			if len(queued) == 0 || queued[0] != scan {
				t.Fatalf("cold run queued %v, want the lineitem scan (func %d) first", queued, scan)
			}
			if len(published) == 0 || published[0] != scan {
				t.Errorf("cold run published %v, want the lineitem scan (func %d) first", published, scan)
			}
			var queuedAt time.Time
			for _, ev := range tr.Events() {
				if ev.Name == obs.EvTierUpQueued {
					queuedAt = ev.Time
					break
				}
			}
			for _, sp := range tr.Spans() {
				if strings.HasPrefix(sp.Name, obs.SpanPipeline) && sp.Start.Before(queuedAt) {
					t.Errorf("%s started before the lineitem scan was queued", sp.Name)
				}
			}
			if mod.Optimized() {
				t.Errorf("cold run queued every function (%v): q_init and the barrier exports should wait for a rerun", queued)
			}
			if id == "Q3" {
				// Q3's join builds place their tuples in many chunks, one
				// finish call each, so the cold run queues a finish function.
				finishQueued := false
				for _, b := range cq.Barriers {
					if b.Join == nil {
						continue
					}
					fn, _ := mod.ExportedFunc(b.Join.FinishExport)
					finishQueued = finishQueued || slices.Contains(queued, int64(fn))
				}
				if !finishQueued {
					t.Errorf("cold run queued %v, no join finish function", queued)
				}
			}
			tr = obs.NewTrace()
			if _, _, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Trace: tr, DrainBackground: true}); err != nil {
				t.Fatal(err)
			}
			if !mod.Optimized() {
				t.Errorf("rerun left functions unqueued (queued %v)", tierEvents(tr, obs.EvTierUpQueued))
			}
		})
	}
}

// TestTierUpSmallColdRunCompilesNothing: a cold query whose every pipeline
// fits in one morsel per worker queues nothing, so tier 2 emits no code and
// serves no morsel.
func TestTierUpSmallColdRunCompilesNothing(t *testing.T) {
	cat, err := tpch.Generate(0.0002, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range smallShapes {
		cq, q := compileOn(t, cat, src)
		eng := engine.New(engine.Config{Tier: engine.TierAdaptive})
		mod, err := eng.Compile(cq.Bin)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		_, st, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Trace: tr, DrainBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := mod.Stats().TurbofanInstrs; n != 0 || st.MorselsTurbofan != 0 || tr.HasEvent(obs.EvTierUpQueued) {
			t.Errorf("%s: cold run emitted %d tier-2 instrs and served %d tier-2 calls", src, n, st.MorselsTurbofan)
		}
	}
}

// TestTierUpCompileFault: the turbofan-compile fault point hit inside a
// queued compile leaves that function — the first queued, Q6's lineitem scan
// — on tier 1, a rerun does not retry it, and the results match tier 1 only.
func TestTierUpCompileFault(t *testing.T) {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, tpch.Queries["Q6"])
	want, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable("turbofan-compile", func(hit int) error {
		if hit == 1 {
			return errors.New("injected tier-2 failure")
		}
		return nil
	})
	defer faultpoint.Disable("turbofan-compile")
	eng := engine.New(engine.Config{Tier: engine.TierAdaptive})
	mod, err := eng.Compile(cq.Bin)
	if err != nil {
		t.Fatal(err)
	}
	scan := lineitemScan(t, cq, q, mod)
	for run := 0; run < 2; run++ {
		tr := obs.NewTrace()
		got, st, err := Execute(cq, q, eng, ExecOptions{Precompiled: mod, Trace: tr, MorselRows: 2048, DrainBackground: true})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if fmtRows(got) != fmtRows(want) {
			t.Errorf("run %d: %s, want %s", run, fmtRows(got), fmtRows(want))
		}
		if st.TurbofanFailed != 1 {
			t.Errorf("run %d: TurbofanFailed = %d, want 1", run, st.TurbofanFailed)
		}
		for _, ev := range []string{obs.EvTierUp, obs.EvTierSwitch} {
			for _, fn := range tierEvents(tr, ev) {
				if fn == scan {
					t.Errorf("run %d: %s event for the scan whose compile failed", run, ev)
				}
			}
		}
	}
}

// TestParallelFirstCallCompilesOnce: two workers that reach the same
// uncompiled pipeline at once compile it once — the second waits for the
// first one's code. Each first-call compile is held for a moment, so both
// workers are in the stub together. A module run cold on two workers must
// count as many tier-1 compiles as one that ran serially first, whose
// two-worker run then compiles only the merge functions, each called by one
// worker; and the results equal the serial ones and those of the module
// optimized before it ran.
func TestParallelFirstCallCompilesOnce(t *testing.T) {
	cat, err := tpch.Generate(0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), MIN(l_shipdate) FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus")
	// No tier 2, so every function runs the code its first call compiled.
	eng := engine.New(engine.Config{Tier: engine.TierAdaptive, TierPolicy: func(int, int) bool { return false }})
	run := func(mod *engine.Module, opt ExecOptions) string {
		t.Helper()
		opt.Precompiled, opt.MorselRows = mod, 2048
		res, st, err := Execute(cq, q, eng, opt)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Parallelism > 1 && st.Workers != 2 {
			t.Fatalf("ran on %d workers (%s), want 2", st.Workers, st.SerialFallback)
		}
		return fmtRows(res)
	}
	compile := func(eng *engine.Engine) *engine.Module {
		t.Helper()
		mod, err := eng.Compile(cq.Bin)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}

	faultpoint.Enable("liftoff-compile", func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	cold := compile(eng)
	got := run(cold, ExecOptions{Parallelism: 2})
	warm := compile(eng)
	serial := run(warm, ExecOptions{})
	run(warm, ExecOptions{Parallelism: 2})
	faultpoint.Disable("liftoff-compile")

	if c, w := cold.Stats().LiftoffFuncs, warm.Stats().LiftoffFuncs; c != w || c == 0 {
		t.Errorf("a cold two-worker run compiled %d functions, a serial then a two-worker run %d: a first call compiled twice", c, w)
	}
	optimized := run(compile(engine.New(engine.Config{Tier: engine.TierAdaptive})), ExecOptions{Parallelism: 2, WaitOptimized: true})
	if got != serial || got != optimized {
		t.Errorf("two workers:\n%s\nserial:\n%s\noptimized first:\n%s", got, serial, optimized)
	}
}

// TestTierSwitchAtEveryMorsel moves the tier switch across every morsel
// boundary of a serial run. For a query whose run makes n core-morsel hits
// (morsels and barrier calls) and each k from 1 to n, a cold adaptive
// module's tier-2 compiles are held until the k-th hit, and that hit and
// every later one wait for the tier-up queue to drain: everything queued
// before morsel k lands exactly before it, and anything queued later before
// the next hit. Each run must answer byte for byte as a TierLiftoff run of
// the same module. The corpus is TPC-H Q1, Q3, Q6, Q12 and Q14 at SF 0.01
// and the small shapes, with a morsel size that gives every table scan at
// least three morsels.
func TestTierSwitchAtEveryMorsel(t *testing.T) {
	defer leakcheck.Check(t)
	var tq []string
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		tq = append(tq, tpch.Queries[id])
	}
	adaptive := engine.New(engine.Config{Tier: engine.TierAdaptive})
	liftoff := engine.New(engine.Config{Tier: engine.TierLiftoff})
	defer faultpoint.Disable("turbofan-compile")
	defer faultpoint.Disable("core-morsel")
	points, switched, start := 0, 0, time.Now()
	for _, c := range []struct {
		sf      float64
		queries []string
	}{{0.01, tq}, {0.0002, smallShapes}} {
		cat, err := tpch.Generate(c.sf, 42)
		if err != nil {
			t.Fatal(err)
		}
		for qi, src := range c.queries {
			cq, q := compileOn(t, cat, src)
			opt := ExecOptions{MorselRows: 1 << 30}
			for _, tb := range q.Tables {
				opt.MorselRows = min(opt.MorselRows, tb.Table.Rows()/3)
			}
			faultpoint.Enable("core-morsel", func(int) error { return nil })
			want, _, err := Execute(cq, q, liftoff, opt)
			n := faultpoint.Hits("core-morsel")
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= n; k++ {
				mod, err := adaptive.Compile(cq.Bin)
				if err != nil {
					t.Fatal(err)
				}
				release, once := make(chan struct{}), sync.Once{}
				// At hit k: the morsel count the landing code is stamped with,
				// and how many functions were queued before it.
				var stamp int64
				var queued int
				tr := obs.NewTrace()
				faultpoint.Enable("turbofan-compile", func(int) error { <-release; return nil })
				faultpoint.Enable("core-morsel", func(hit int) error {
					if hit == k {
						stamp, queued = tr.MorselCount(), len(tierEvents(tr, obs.EvTierUpQueued))
						once.Do(func() { close(release) })
					}
					if hit >= k {
						return mod.WaitQueued()
					}
					return nil
				})
				run := opt
				run.Precompiled, run.Trace = mod, tr
				got, _, err := Execute(cq, q, adaptive, run)
				faultpoint.Disable("core-morsel")
				once.Do(func() { close(release) })
				if werr := mod.WaitQueued(); err == nil {
					err = werr
				}
				if err != nil {
					t.Fatalf("sf%g/q%d, switch at hit %d of %d: %v", c.sf, qi, k, n, err)
				}
				if fmtRows(got) != fmtRows(want) {
					t.Fatalf("sf%g/q%d, switch at hit %d of %d:\n%s\nwant (TierLiftoff)\n%s", c.sf, qi, k, n, fmtRows(got), fmtRows(want))
				}
				var landed []int64
				for _, ev := range tr.Events() {
					if ev.Name == obs.EvTierUp {
						landed = append(landed, ev.Args[1].Val)
					}
				}
				if len(landed) < queued || (queued > 0 && (landed[0] != stamp || landed[queued-1] != stamp)) {
					t.Fatalf("sf%g/q%d, switch at hit %d of %d: %d functions queued before it landed at morsels %v, want all at %d",
						c.sf, qi, k, n, queued, landed, stamp)
				}
				points++
				if queued > 0 {
					switched++
				}
			}
		}
	}
	t.Logf("%d (query, k) points, %d with tier-2 code landing at k, in %v", points, switched, time.Since(start).Round(time.Millisecond))
	if switched == 0 {
		t.Error("no point had tier-2 code queued before its switch morsel")
	}
}
