package experiments

import (
	"fmt"
	"io"
	"time"

	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/tpch"
	"wasmdb/internal/workload"
)

// AblationHashTable quantifies §4.3's claim: ad-hoc generated, fully
// inlined hash tables vs the type-agnostic pre-compiled-library design
// (chained buckets, call_indirect comparator, one call per access).
func AblationHashTable(o Options) *Figure {
	o.norm()
	fig := NewFigure(
		fmt.Sprintf("Ablation §4.3: inlined specialized HT vs library HT, %d rows", o.Rows),
		"workload", "group-by 100", "group-by 100k", "fk-join")
	catG, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, GroupCols: 1, GroupDistinct: 100, Seed: 811})
	catG2, _ := workload.Catalog(workload.Spec{Name: "t", Rows: o.Rows, GroupCols: 1, GroupDistinct: 100_000, Seed: 812})
	catJ, _ := workload.JoinPair(o.Rows/4, o.Rows, 1, 813)
	groupQ := "SELECT g0, COUNT(*) FROM t GROUP BY g0"
	joinQ := "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"

	for _, w := range []struct {
		cat *catalog.Catalog
		src string
	}{{catG, groupQ}, {catG2, groupQ}, {catJ, joinQ}} {
		fig.Add("generated", execTime(&o, w.cat, w.src, "mutable", core.Style{}))
		fig.Add("library", execTime(&o, w.cat, w.src, "mutable", core.Style{LibraryHT: true}))
	}
	return fig
}

// AblationSort quantifies §5's claim: the generated quicksort with inlined
// comparisons vs the generic qsort with a comparator function pointer.
func AblationSort(o Options) *Figure {
	o.norm()
	sizes := []int{o.Rows / 16, o.Rows / 4, o.Rows}
	ticks := make([]string, len(sizes))
	for i, s := range sizes {
		ticks[i] = fmt.Sprintf("%d", s)
	}
	fig := NewFigure("Ablation §5: generated quicksort vs library qsort (Θ(n log n) comparator calls)", "rows", ticks...)
	for _, n := range sizes {
		cat, _ := workload.Catalog(workload.Spec{Name: "t", Rows: n, IntCols: 2, Seed: 821})
		src := "SELECT i0 FROM t ORDER BY i0, i1 LIMIT 100"
		fig.Add("generated", execTime(&o, cat, src, "mutable", core.Style{}))
		fig.Add("library", execTime(&o, cat, src, "mutable", core.Style{LibrarySort: true}))
	}
	return fig
}

// AblationRewiring quantifies §6.1's claim: rewiring host columns into the
// module's memory vs copying them in, measured as data-transfer setup cost.
func AblationRewiring(o Options, out io.Writer) {
	o.norm()
	tbl := workload.Generate(workload.Spec{Name: "t", Rows: o.Rows, IntCols: 4, FloatCols: 4, Seed: 831})
	totalBytes := 0
	for _, c := range tbl.Columns {
		totalBytes += c.MappedBytes()
	}
	pages := uint32(totalBytes/wmem.PageSize) + 8

	rewire := Median(o.Reps, func() time.Duration {
		mem := wmem.New(pages, 65536)
		t0 := time.Now()
		addr := uint32(0)
		for _, c := range tbl.Columns {
			if err := mem.Map(addr, c.Data()); err != nil {
				panic(err)
			}
			addr += uint32(c.MappedBytes())
		}
		return time.Since(t0)
	})
	copyIn := Median(o.Reps, func() time.Duration {
		mem := wmem.New(pages, 65536)
		t0 := time.Now()
		addr := uint32(0)
		for _, c := range tbl.Columns {
			mem.WriteBytes(addr, c.Data())
			addr += uint32(c.MappedBytes())
		}
		return time.Since(t0)
	})
	fmt.Fprintf(out, "\n== Ablation §6.1: rewiring vs copy-in (%d MiB of columns) ==\n", totalBytes>>20)
	fmt.Fprintf(out, "rewire (zero-copy map): %s\n", fmtDur(rewire))
	fmt.Fprintf(out, "copy-in:                %s\n", fmtDur(copyIn))
	if rewire > 0 {
		fmt.Fprintf(out, "speedup: %.1fx\n", float64(copyIn)/float64(rewire))
	}
}

// AblationTiers shows the latency/throughput trade-off of §2.2: baseline
// tier only, optimizing tier only, and adaptive, on a short and a long
// query.
func AblationTiers(o Options, out io.Writer) error {
	o.norm()
	catSmall, err := tpch.Generate(o.SF/10, 42)
	if err != nil {
		return err
	}
	catBig, err := tpch.Generate(o.SF, 42)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== Ablation §2.2: tier latency vs throughput (TPC-H Q6) ==\n")
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"short query (small data)", catSmall}, {"long query (large data)", catBig}} {
		fmt.Fprintf(out, "%s:\n", c.name)
		for _, sys := range []string{"liftoff", "turbofan", "adaptive"} {
			tm, err := RunOn(c.cat, tpch.Queries["Q6"], sys, core.Style{}, true)
			if err != nil {
				return err
			}
			compile := tm.Liftoff
			if sys == "turbofan" {
				compile = tm.Turbofan
			}
			fmt.Fprintf(out, "  %-9s compile=%-10s execute=%-10s total=%-10s morsels lo/tf=%d/%d\n",
				sys, fmtDur(compile), fmtDur(tm.Execute), fmtDur(tm.Total),
				tm.MorselsLo, tm.MorselsTf)
		}
	}
	return nil
}
