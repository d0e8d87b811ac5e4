package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/faultpoint"
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
// first one published; a cold run leaves q_init and the barrier exports
// unqueued, and the rerun queues the rest.
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
