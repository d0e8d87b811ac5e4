package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/storage"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
	"wasmdb/internal/workload"
)

// compileOn compiles src against cat in the paper's ad-hoc style.
func compileOn(t testing.TB, cat *catalog.Catalog, src string) (*CompiledQuery, *sema.Query) {
	t.Helper()
	return compileStyledOn(t, cat, src, Style{})
}

// compileStyledOn compiles src against cat in the given style.
func compileStyledOn(t testing.TB, cat *catalog.Catalog, src string, style Style) (*CompiledQuery, *sema.Query) {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileStyled(q, p, style)
	if err != nil {
		t.Fatal(err)
	}
	return cq, q
}

func parCatalog(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	cat, err := workload.Catalog(workload.Spec{Name: "t", Rows: rows, IntCols: 2, FloatCols: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSerialFallbackMatrix pins, through Execute, which query × options run
// on a pool and which fall back and why: every condition that forces serial
// execution must be named, and every shape whose barriers the code generator
// declares must run with all four workers — a bare join with both its scans
// parallel, a join feeding an aggregation, a group table or a sort likewise,
// and a LIMIT only where a sorted-run barrier orders the rows first.
func TestSerialFallbackMatrix(t *testing.T) {
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	for _, c := range fallbackCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cq, q := compileStyledOn(t, c.cat, c.src, c.style)
			_, st, err := Execute(cq, q, eng, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			workers := 1
			if c.parallel > 0 {
				workers = 4
			}
			if st.SerialFallback != c.fallback || st.PipelinesParallel != c.parallel || st.Workers != workers {
				t.Errorf("fallback %q, %d pipelines parallel, %d workers; want %q, %d, %d",
					st.SerialFallback, st.PipelinesParallel, st.Workers, c.fallback, c.parallel, workers)
			}
		})
	}
}

type fallbackCase struct {
	name     string
	cat      *catalog.Catalog
	src      string
	style    Style
	opt      ExecOptions
	fallback string
	parallel int // ExecStats.PipelinesParallel
}

// fallbackCases is the matrix of TestSerialFallbackMatrix; TestModuleGolden
// hashes the modules of its queries.
func fallbackCases(t *testing.T) []fallbackCase {
	tcat := parCatalog(t, 1000)
	jcat, err := workload.JoinPair(2000, 8000, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	const join = "FROM build, probe WHERE build.pk = probe.fk"
	par := ExecOptions{Parallelism: 4}
	return []fallbackCase{
		{"serial-request", tcat, "SELECT COUNT(*), SUM(i0), MIN(i1) FROM t WHERE i0 < 0", Style{}, ExecOptions{}, "", 0},
		{"agg", tcat, "SELECT COUNT(*), SUM(i0), MIN(i1) FROM t WHERE i0 < 0", Style{}, par, "", 1},
		{"agg-predicated", tcat, "SELECT COUNT(*), SUM(i0), MIN(i1) FROM t WHERE i0 < 0", Style{PredicatedSelection: true}, par, "", 1},
		{"scan", tcat, "SELECT i0, i1 FROM t WHERE i0 < 0", Style{}, par, "", 1},
		{"chunked", tcat, "SELECT COUNT(*) FROM t", Style{}, ExecOptions{Parallelism: 4, ChunkRows: 65536}, fallbackChunked, 0},
		{"fuel", tcat, "SELECT COUNT(*) FROM t", Style{}, ExecOptions{Parallelism: 4, Fuel: 1 << 40}, fallbackFuel, 0},
		{"limit", tcat, "SELECT i0 FROM t LIMIT 10", Style{}, par, fallbackLimit, 0},
		{"float-sum", tcat, "SELECT SUM(f0) FROM t", Style{}, par, fallbackFloatSum, 0},
		{"group-by", tcat, "SELECT i0, COUNT(*), SUM(i1), MIN(i1) FROM t GROUP BY i0", Style{}, par, "", 1},
		{"group-order", tcat, "SELECT i0, COUNT(*) FROM t GROUP BY i0 ORDER BY i0", Style{}, par, "", 1},
		{"group-order-limit", tcat, "SELECT i0, COUNT(*) FROM t GROUP BY i0 ORDER BY i0 LIMIT 3", Style{}, par, "", 1},
		{"group-having", tcat, "SELECT i0, COUNT(*) FROM t GROUP BY i0 HAVING COUNT(*) > 1", Style{}, par, "", 1},
		{"group-float-key", tcat, "SELECT f0, COUNT(*) FROM t GROUP BY f0", Style{}, par, "", 1},
		{"group-float-sum", tcat, "SELECT i0, SUM(f0) FROM t GROUP BY i0", Style{}, par, fallbackFloatSum, 0},
		{"group-library", tcat, "SELECT i0, COUNT(*) FROM t GROUP BY i0", Style{LibraryHT: true}, par, fallbackUnmergeable, 0},
		{"sort", tcat, "SELECT i0, f0 FROM t ORDER BY i0 DESC, f0", Style{}, par, "", 1},
		{"sort-limit", tcat, "SELECT i0 FROM t ORDER BY i0 LIMIT 5", Style{}, par, "", 1},
		{"sort-library", tcat, "SELECT i0 FROM t ORDER BY i0", Style{LibrarySort: true}, par, "", 1},
		{"group-sort-library", tcat, "SELECT i0, COUNT(*) FROM t GROUP BY i0 ORDER BY i0", Style{LibrarySort: true}, par, "", 1},
		{"join", jcat, "SELECT build.pk, probe.payload " + join, Style{}, par, "", 2},
		{"join-agg", jcat, "SELECT COUNT(*) " + join, Style{}, par, "", 2},
		{"join-group", jcat, "SELECT build.nk, COUNT(*) " + join + " GROUP BY build.nk", Style{}, par, "", 2},
		{"join-sort", jcat, "SELECT build.pk, probe.payload " + join + " ORDER BY build.pk", Style{}, par, "", 2},
		{"join-limit", jcat, "SELECT build.pk " + join + " LIMIT 5", Style{}, par, fallbackLimit, 0},
		// LIMIT over merged sorted runs is exact: the pairwise merge orders
		// the tuples before the limit applies, so parallelism stays on.
		{"join-sort-limit", jcat, "SELECT build.pk " + join + " ORDER BY build.pk LIMIT 5", Style{}, par, "", 2},
		{"join-library", jcat, "SELECT COUNT(*) " + join, Style{LibraryHT: true}, par, fallbackUnmergeable, 0},
		// The library join is met first, so its reason stands.
		{"join-library-float-sum", jcat, "SELECT SUM(probe.payload * 0.5) " + join, Style{LibraryHT: true}, par, fallbackUnmergeable, 0},
	}
}

// TestParallelAggMatchesSerial checks the host-side merge pass: a keyless
// aggregation executed by 4 workers must produce the exact row serial
// execution does, including over an empty match set, and must report full
// parallel coverage in the stats.
func TestParallelAggMatchesSerial(t *testing.T) {
	cat := parCatalog(t, 100_000)
	for _, src := range []string{
		"SELECT COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t WHERE i0 < 1000000",
		"SELECT COUNT(*), MIN(f0), MAX(f1) FROM t WHERE i1 > 0",
		// Zero matching rows: merged COUNT must be 0 and MIN/MAX fall back to
		// the zero-group convention.
		"SELECT COUNT(*), SUM(i0), MIN(i1) FROM t WHERE i0 < -2147483647",
	} {
		cq, q := compileOn(t, cat, src)
		eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
		serial, _, err := Execute(cq, q, eng, ExecOptions{})
		if err != nil {
			t.Fatalf("serial %s: %v", src, err)
		}
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 4096})
		if err != nil {
			t.Fatalf("parallel %s: %v", src, err)
		}
		if got, want := fmt.Sprint(sortedRows(par)), fmt.Sprint(sortedRows(serial)); got != want {
			t.Errorf("%s: parallel %s != serial %s", src, got, want)
		}
		if st.Workers != 4 || st.PipelinesParallel != 1 || st.PipelinesSerial != 0 || st.SerialFallback != "" {
			t.Errorf("%s: stats = workers %d, parallel %d, serial %d, fallback %q",
				src, st.Workers, st.PipelinesParallel, st.PipelinesSerial, st.SerialFallback)
		}
	}
}

// grpCatalog generates a table with a bounded-cardinality group column g0
// next to the usual int and float columns.
func grpCatalog(t *testing.T, rows, distinct int) *catalog.Catalog {
	t.Helper()
	cat, err := workload.Catalog(workload.Spec{
		Name: "t", Rows: rows, IntCols: 2, FloatCols: 2,
		GroupCols: 1, GroupDistinct: distinct, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestParallelGroupMatchesSerial checks the group-merge barrier end to end:
// grouped aggregations executed by 4 workers must produce the same rows as
// serial execution — including HAVING, ORDER BY on top, and high-cardinality
// keys that force the merge table to grow — with full parallel-scan coverage
// and no recorded fallback.
func TestParallelGroupMatchesSerial(t *testing.T) {
	cat := grpCatalog(t, 100_000, 100)
	for _, c := range []struct {
		src     string
		ordered bool
	}{
		{"SELECT g0, COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t GROUP BY g0", false},
		{"SELECT g0, COUNT(*) FROM t WHERE i0 > 0 GROUP BY g0", false},
		{"SELECT g0, MIN(f0), MAX(f1) FROM t GROUP BY g0", false},
		{"SELECT g0, SUM(i0), AVG(i1) FROM t GROUP BY g0 ORDER BY g0", true},
		{"SELECT g0, COUNT(*) FROM t GROUP BY g0 HAVING COUNT(*) > 1000 ORDER BY g0 DESC", true},
		// High-cardinality keys: ~100k groups, so worker tables grow and the
		// primary's merge path exercises emitMaybeGrow.
		{"SELECT i0, COUNT(*) FROM t GROUP BY i0", false},
	} {
		cq, q := compileOn(t, cat, c.src)
		eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
		serial, _, err := Execute(cq, q, eng, ExecOptions{})
		if err != nil {
			t.Fatalf("serial %s: %v", c.src, err)
		}
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 4096})
		if err != nil {
			t.Fatalf("parallel %s: %v", c.src, err)
		}
		if c.ordered {
			if got, want := fmt.Sprint(par.Rows), fmt.Sprint(serial.Rows); got != want {
				t.Errorf("%s: parallel order differs from serial", c.src)
			}
		} else if got, want := fmt.Sprint(sortedRows(par)), fmt.Sprint(sortedRows(serial)); got != want {
			t.Errorf("%s: parallel %s != serial %s", c.src, got, want)
		}
		if st.Workers != 4 || st.PipelinesParallel != 1 || st.SerialFallback != "" {
			t.Errorf("%s: stats = workers %d, parallel %d, fallback %q; want 4/1/none",
				c.src, st.Workers, st.PipelinesParallel, st.SerialFallback)
		}
		if st.GroupsMerged == 0 {
			t.Errorf("%s: GroupsMerged = 0, want > 0", c.src)
		}
	}
}

// TestParallelSortMatchesSerial checks the sorted-run merge: ORDER BY over a
// scan executed by 4 workers, and the key-type corpus (sortCorpus) by 2, 3 and
// 4, must produce byte-identical row order to serial execution. Select lists
// are subsets of the sort keys, or the order ends in a unique column, so
// key-tie permutations (quicksort is unstable) cannot masquerade as order
// bugs.
func TestParallelSortMatchesSerial(t *testing.T) {
	cat := parCatalog(t, 100_000)
	for _, src := range []string{
		"SELECT i0 FROM t ORDER BY i0",
		"SELECT i0 FROM t WHERE i1 > 0 ORDER BY i0 DESC",
		"SELECT f0 FROM t ORDER BY f0",
		"SELECT i0, i1 FROM t ORDER BY i0, i1 DESC",
	} {
		checkSortParallel(t, cat, src, Style{}, 4096, 4)
	}
	for _, cat := range sortCorpus(t) {
		for _, src := range sortCorpusQueries {
			checkSortParallel(t, cat, src, Style{}, 1024, 2, 3, 4)
		}
	}
}

// TestStyledSortParallelMatchesSerial checks that the library sort carries the
// sorted-run barrier like the generated one: it sorts the same per-worker
// array and merges through its comparator, so ORDER BY under
// Style{LibrarySort} must equal serial execution row for row — ASC and DESC,
// CHAR and FLOAT keys, with and without LIMIT on 2 and 4 workers, and the
// key-type corpus (sortCorpus) on 2, 3 and 4 — with no fallback recorded.
// Every order ends in a unique column, so ties cannot hide an order bug.
func TestStyledSortParallelMatchesSerial(t *testing.T) {
	cat := microCatalog(t, 20_000)
	for _, src := range []string{
		"SELECT name, id FROM r ORDER BY name, id",
		"SELECT name, id FROM r WHERE g < 5 ORDER BY name DESC, id DESC",
		"SELECT y, id FROM r ORDER BY y, id",
		"SELECT y, id FROM r ORDER BY y DESC, id LIMIT 40",
		"SELECT name, y, id FROM r ORDER BY name, y DESC, id LIMIT 1000",
		"SELECT x, id FROM r ORDER BY x DESC, id",
	} {
		checkSortParallel(t, cat, src, Style{LibrarySort: true}, 1024, 2, 4)
	}
	for _, cat := range sortCorpus(t) {
		for _, src := range sortCorpusQueries {
			checkSortParallel(t, cat, src, Style{LibrarySort: true}, 1024, 2, 3, 4)
		}
	}
}

// checkSortParallel runs src serially and on each worker count and requires
// the same rows in the same order, with a parallel scan and no fallback. When
// the table has a morsel for every worker, a rendezvous gives each worker one,
// so every run is non-empty and the merge sees exactly that many runs.
func checkSortParallel(t *testing.T, cat *catalog.Catalog, src string, style Style, morsel int, workers ...int) {
	t.Helper()
	cq, q := compileStyledOn(t, cat, src, style)
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	serial, _, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatalf("serial %s: %v", src, err)
	}
	for _, workers := range workers {
		if q.Tables[0].Table.Rows() >= workers*morsel {
			sortRendezvous(workers, nil)
		}
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: workers, MorselRows: morsel})
		faultpoint.Disable("core-morsel")
		if err != nil {
			t.Fatalf("%d workers %s: %v", workers, src, err)
		}
		if fmt.Sprint(par.Rows) != fmt.Sprint(serial.Rows) {
			t.Errorf("%+v %s: order on %d workers differs from serial", style, src, workers)
		}
		if st.Workers != workers || st.PipelinesParallel != 1 || st.SerialFallback != "" {
			t.Errorf("%s: stats = workers %d, parallel %d, fallback %q; want %d/1/none",
				src, st.Workers, st.PipelinesParallel, st.SerialFallback, workers)
		}
	}
}

// sortCorpusQueries are the key-type corpus of the serial-vs-parallel ORDER
// BY differentials: FLOAT keys with NaN and ±0, BIGINT, DECIMAL, DATE, BOOL,
// and CHAR of widths 1, 7 and 25, ascending and descending. Each order ends
// in the unique id. A NaN key compares neither less nor greater than anything
// and ends the comparison, so it is no order: NaN rows share their a with no
// other row, and a NaN group's rows differ in id only, which the select list
// leaves out — within a, equal and −0/+0 floats fall through to id.
var sortCorpusQueries = []string{
	"SELECT a, f FROM t ORDER BY a, f, id",
	"SELECT a, f FROM t ORDER BY a DESC, f DESC, id",
	"SELECT flag, c1, d, id FROM t ORDER BY flag DESC, c1, d, id DESC",
	"SELECT c7, c25, dec, id FROM t ORDER BY c7 DESC, c25, dec DESC, id",
	"SELECT b, id FROM t WHERE flag ORDER BY b, id",
}

// sortCorpus returns the corpus tables: one smaller than a 1024-row morsel
// (every run but one is empty), one of 2.5 morsels (on four workers at least
// one run is empty) and one of 8 000 rows.
func sortCorpus(t *testing.T) []*catalog.Catalog {
	t.Helper()
	var out []*catalog.Catalog
	chars := []string{"", " ", "a", "a ", "ab", "b", "PROMO", "PROMO X", "zz\xff", "\x00q"}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e300, -1e-300}
	for _, rows := range []int{700, 2500, 8000} {
		rng := rand.New(rand.NewSource(int64(rows)))
		tbl := storage.NewTable("t",
			[]string{"id", "a", "f", "b", "dec", "d", "flag", "c1", "c7", "c25"},
			[]types.Type{types.TInt32, types.TInt32, types.TFloat64, types.TInt64, types.TDecimal(12, 2),
				types.TDate, types.TBool, types.TChar(1), types.TChar(7), types.TChar(25)})
		for i := 0; i < rows; i++ {
			a, f := rng.Intn(rows/8), floats[rng.Intn(len(floats))]
			if i%97 == 0 {
				a, f = -1-i/194, math.NaN() // NaN groups of two rows
			}
			c := func(w int) types.Value {
				v := chars[rng.Intn(len(chars))]
				return types.NewChar(v[:min(len(v), w)], w)
			}
			if err := tbl.AppendRow(types.NewInt32(int32(i)), types.NewInt32(int32(a)), types.NewFloat64(f),
				types.NewInt64(rng.Int63n(1<<40)-1<<39), types.NewDecimal(rng.Int63n(20_000)-10_000, 12, 2),
				types.NewDate(int32(9000+rng.Intn(400))), types.NewBool(rng.Intn(2) == 0),
				c(1), c(7), c(25)); err != nil {
				t.Fatal(err)
			}
		}
		cat := catalog.New()
		if err := cat.Add(tbl); err != nil {
			t.Fatal(err)
		}
		out = append(out, cat)
	}
	return out
}

// TestParallelSortMergeExport calls the generated merge directly, in both
// styles and on both tiers, on hand-built sorted runs of INT keys with
// payloads: the output must be Go's stable merge of the two runs, so a tie
// takes the left run's tuple first. Runs are empty or up to 40 tuples over
// eight keys, so ties are common.
func TestParallelSortMergeExport(t *testing.T) {
	tbl := storage.NewTable("t", []string{"k", "p"}, []types.Type{types.TInt32, types.TInt32})
	cat := catalog.New()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	for _, style := range []Style{{}, {LibrarySort: true}} {
		cq, _ := compileStyledOn(t, cat, "SELECT k, p FROM t ORDER BY k", style)
		var sm *SortMerge
		for _, b := range cq.Barriers {
			if b.Sort != nil {
				sm = b.Sort
			}
		}
		if sm == nil || sm.Stride != 8 {
			t.Fatalf("%+v: sorted-run barrier %+v, want one with 8-byte tuples (k, p)", style, sm)
		}
		for _, tier := range []engine.Tier{engine.TierLiftoff, engine.TierTurbofan} {
			mod, err := engine.New(engine.Config{Tier: tier}).Compile(cq.Bin)
			if err != nil {
				t.Fatal(err)
			}
			mem := wmem.New(cq.MinPages+1, cq.MinPages+1)
			inst, err := mod.Instantiate(engine.Imports{Memory: mem, Funcs: map[string]*rt.HostFunc{
				"env.result_flush": {
					Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}},
					Fn:   func(*rt.Env, []uint64, []uint64) {},
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			base := cq.MinPages * wmem.PageSize
			for trial := 0; trial < 200; trial++ {
				var runs [2][][2]int32
				payload := int32(0)
				for r := range runs {
					for range rng.Intn(41) {
						runs[r] = append(runs[r], [2]int32{int32(rng.Intn(8)) - 4, payload})
						payload++
					}
					slices.SortStableFunc(runs[r], func(x, y [2]int32) int { return cmp.Compare(x[0], y[0]) })
				}
				want := slices.SortedStableFunc(slices.Values(append(slices.Clone(runs[0]), runs[1]...)),
					func(x, y [2]int32) int { return cmp.Compare(x[0], y[0]) })
				at := base
				for _, tup := range append(slices.Clone(runs[0]), runs[1]...) {
					mem.PutU32(at, uint32(tup[0]))
					mem.PutU32(at+4, uint32(tup[1]))
					at += 8
				}
				mid, end := base+8*uint32(len(runs[0])), at
				out := base + 8*100
				if _, err := inst.Call(sm.MergeExport, uint64(base), uint64(mid), uint64(end), uint64(out)); err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					got := [2]int32{int32(mem.U32(out + 8*uint32(i))), int32(mem.U32(out + 8*uint32(i) + 4))}
					if got != w {
						t.Fatalf("%+v tier %v: merge of %v and %v: tuple %d = %v, want %v",
							style, tier, runs[0], runs[1], i, got, w)
					}
				}
			}
		}
	}
}

// sortRendezvous arms the morsel fault point so each of the first n morsels
// waits for the others: with n workers and n morsels, every worker scans
// exactly one and holds a non-empty run. hit, if not nil, answers every later
// hit — the merge calls of the sorted-run barrier.
func sortRendezvous(n int, hit func(int) error) {
	var arrived sync.WaitGroup
	arrived.Add(n)
	faultpoint.Enable("core-morsel", func(h int) error {
		if h <= n {
			arrived.Done()
			arrived.Wait()
			return nil
		}
		if hit != nil {
			return hit(h)
		}
		return nil
	})
}

// TestParallelSortMergeFaultAndCancel injects a failure, and separately a
// cancellation, at the second merge call of the sorted-run barrier: four
// workers hold one run each, so the merges are hits 5 and 6 (first pass) and
// 7 (second pass). The query must return the error and no rows — never a
// partly merged order.
func TestParallelSortMergeFaultAndCancel(t *testing.T) {
	cat := parCatalog(t, 4000)
	for _, style := range []Style{{}, {LibrarySort: true}} {
		cq, q := compileStyledOn(t, cat, "SELECT i0, i1 FROM t ORDER BY i0, i1", style)
		eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
		boom := errors.New("injected sort-merge failure")
		sortRendezvous(4, func(h int) error {
			if h == 6 {
				return boom
			}
			return nil
		})
		res, _, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 1000})
		faultpoint.Disable("core-morsel")
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), sortMergeExport) || res != nil {
			t.Fatalf("%+v: Execute returned %v (result %v), want the injected %s failure and no result",
				style, err, res != nil, sortMergeExport)
		}

		ctx, cancel := context.WithCancel(context.Background())
		sortRendezvous(4, func(h int) error {
			if h == 6 {
				cancel()
			}
			return nil
		})
		res, _, err = Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 1000, Ctx: ctx})
		faultpoint.Disable("core-morsel")
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%+v: Execute returned %v (result %v), want context.Canceled and no result", style, err, res != nil)
		}
	}
}

// TestParallelSortMergeMemoryLimit gives the query the memory serial
// execution peaks at. Serially that fits. On four workers each worker holds a
// quarter of the tuples, which fits too, but the primary must also hold the
// gathered runs and the merge target — twice the tuples, 4 MiB of 64-byte
// tuples more than its quarter saves — so q_sort_recv fails with
// ErrMemoryLimit and no rows.
func TestParallelSortMergeMemoryLimit(t *testing.T) {
	const morsel = 16384 // four morsels: the sort array's last doubling is exactly full
	cat, err := workload.Catalog(workload.Spec{Name: "t", Rows: 4 * morsel, IntCols: 4, FloatCols: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, "SELECT i0, i1, i2, i3, f0, f1, f2, f3, f4, f5 FROM t ORDER BY i0, f0")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	_, st, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := uint32(st.PeakMemBytes / wmem.PageSize)
	if _, _, err := Execute(cq, q, eng, ExecOptions{MemoryBudgetPages: budget}); err != nil {
		t.Fatalf("serial run within its own peak of %d pages: %v", budget, err)
	}
	sortRendezvous(4, nil)
	defer faultpoint.Disable("core-morsel")
	res, _, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: morsel, MemoryBudgetPages: budget})
	if !errors.Is(err, engine.ErrMemoryLimit) || !strings.Contains(err.Error(), sortRecvExport) || res != nil {
		t.Fatalf("4 workers under %d pages returned %v (result %v), want ErrMemoryLimit from %s and no result",
			budget, err, res != nil, sortRecvExport)
	}
}

// TestParallelGroupMergeFault injects a morsel failure into the q_group_merge
// loop itself (the scan is 10 morsels, so hit 11 is the first merge morsel):
// the barrier must surface the error and return no result — never a partially
// merged one.
func TestParallelGroupMergeFault(t *testing.T) {
	cat := grpCatalog(t, 10_000, 100)
	cq, q := compileOn(t, cat, "SELECT g0, COUNT(*), SUM(i0) FROM t GROUP BY g0")
	boom := errors.New("injected group-merge failure")
	faultpoint.Enable("core-morsel", faultpoint.AtHit(11, boom))
	defer faultpoint.Disable("core-morsel")
	res, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}),
		ExecOptions{Parallelism: 4, MorselRows: 1000})
	if !errors.Is(err, boom) {
		t.Fatalf("Execute returned %v, want injected merge failure", err)
	}
	if res != nil {
		t.Fatalf("Execute returned a result alongside the merge failure")
	}
}

// TestParallelGroupMergeEnginePanic arms the engine's call-panic fault at the
// first merge morsel: the engine guardrail converts the panic into a typed
// error and the query must fail cleanly rather than return merged-so-far
// groups.
func TestParallelGroupMergeEnginePanic(t *testing.T) {
	cat := grpCatalog(t, 10_000, 100)
	cq, q := compileOn(t, cat, "SELECT g0, COUNT(*), SUM(i0) FROM t GROUP BY g0")
	faultpoint.Enable("core-morsel", func(hit int) error {
		if hit == 11 {
			faultpoint.Enable("engine-call-panic", faultpoint.Always(errors.New("simulated engine bug")))
		}
		return nil
	})
	defer faultpoint.Disable("core-morsel")
	defer faultpoint.Disable("engine-call-panic")
	res, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}),
		ExecOptions{Parallelism: 4, MorselRows: 1000})
	if err == nil {
		t.Fatal("Execute succeeded with a panicking merge call")
	}
	if res != nil {
		t.Fatal("Execute returned a result alongside the engine panic")
	}
}

// TestParallelGroupBarrierFoldsAndGrows runs the group barrier where both of
// its paths are taken a known number of times. The table is four morsels, and
// a rendezvous in the morsel fault point holds the first four morsel calls
// until four workers have arrived, so every worker scans exactly one. Each
// morsel holds the same 200 keys — they meet a group in the primary's table
// and fold — and 400 keys no other morsel has, which claim new slots: the
// primary enters the barrier with 600 groups and leaves with 1800, growing
// its 1024-slot table twice mid-merge. The host folds nothing beforehand, so
// GroupsMerged is the secondaries' record count, 3 × 600, not the number of
// distinct keys among them.
func TestParallelGroupBarrierFoldsAndGrows(t *testing.T) {
	const morsel, common, rare = 2000, 200, 400
	tbl := storage.NewTable("t", []string{"k", "v"}, []types.Type{types.TInt32, types.TInt32})
	for m := 0; m < 4; m++ {
		for i := 0; i < morsel; i++ {
			k := i / 5 % common
			if i%5 == 0 {
				k = common + m*rare + i/5
			}
			if err := tbl.AppendRow(types.NewInt32(int32(k)), types.NewInt32(int32(m*morsel+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cat := catalog.New()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	serial, _, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(4)
	faultpoint.Enable("core-morsel", func(hit int) error {
		if hit <= 4 {
			arrived.Done()
			arrived.Wait()
		}
		return nil
	})
	defer faultpoint.Disable("core-morsel")
	par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: morsel})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsMerged != 3*(common+rare) {
		t.Errorf("GroupsMerged = %d, want the secondaries' %d records", st.GroupsMerged, 3*(common+rare))
	}
	if len(par.Rows) != common+4*rare {
		t.Errorf("%d groups, want %d", len(par.Rows), common+4*rare)
	}
	if fmt.Sprint(sortedRows(par)) != fmt.Sprint(sortedRows(serial)) {
		t.Errorf("rows differ from serial execution")
	}
}

// TestParallelFloatGroupKeys is the serial-vs-parallel differential on FLOAT
// group keys: the guest's key comparison is the only equality there is, so a
// pool groups exactly as one worker does. The
// oracle is the same module run serially, rows compared as a multiset.
// Ordinary values group by value; +0.0 and −0.0 hash to the same slot and
// compare equal, so they are one group, keyed by whichever zero its table saw
// first (the comparison ignores that sign); NaN equals nothing, so every NaN
// row is a group of its own — in a worker's table and again when its record
// is merged into the primary's.
func TestParallelFloatGroupKeys(t *testing.T) {
	tbl := storage.NewTable("t", []string{"k", "v"}, []types.Type{types.TFloat64, types.TInt32})
	nan2 := math.Float64frombits(0x7ff8000000000001)
	for i := 0; i < 40_000; i++ {
		k := float64(i%50)*0.5 + 1
		switch {
		case i%1009 == 0:
			k = math.NaN()
		case i%1013 == 0:
			k = nan2
		case i%97 == 0:
			k = 0
		case i%101 == 0:
			k = math.Copysign(0, -1)
		}
		if err := tbl.AppendRow(types.NewFloat64(k), types.NewInt32(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	rows := func(r *ResultSet) []string {
		for _, row := range r.Rows {
			if row[0].F == 0 {
				row[0].F = 0 // −0.0 → +0.0
			}
		}
		return sortedRows(r)
	}
	serial, _, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := rows(serial)
	if nans := 40_000/1009 + 40_000/1013 + 1; len(want) != 50+1+nans {
		t.Fatalf("serial run has %d groups, want 50 values, one zero and %d NaN rows", len(want), nans)
	}
	for _, workers := range []int{1, 2, 4} {
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: workers, MorselRows: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != workers || st.SerialFallback != "" {
			t.Errorf("%d workers: ran with %d, fallback %q", workers, st.Workers, st.SerialFallback)
		}
		if got := rows(par); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%d workers: %d groups differ from the serial run's %d", workers, len(got), len(want))
		}
	}
}

// TestParallelAggMergeFaults fails the keyless fold barrier: the scan is 10
// morsels, so hits 11–13 are the three q_agg_merge calls. An injected
// failure at the second — one partial state folded, two not — and an engine
// panic inside the first must surface as errors with no result, never as a
// partially folded aggregate.
func TestParallelAggMergeFaults(t *testing.T) {
	cat := parCatalog(t, 10_000)
	cq, q := compileOn(t, cat, "SELECT COUNT(*), SUM(i0), MIN(i1), MAX(f0) FROM t")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	opt := ExecOptions{Parallelism: 4, MorselRows: 1000}
	boom := errors.New("injected fold failure")
	faultpoint.Enable("core-morsel", faultpoint.AtHit(12, boom))
	defer faultpoint.Disable("core-morsel")
	res, _, err := Execute(cq, q, eng, opt)
	if !errors.Is(err, boom) || res != nil || !strings.Contains(err.Error(), aggMergeExport) {
		t.Fatalf("Execute = (%v, %v), want the injected failure inside %s and no result", res, err, aggMergeExport)
	}

	faultpoint.Enable("core-morsel", func(hit int) error {
		if hit == 11 {
			faultpoint.Enable("engine-call-panic", faultpoint.Always(errors.New("simulated engine bug")))
		}
		return nil
	})
	defer faultpoint.Disable("engine-call-panic")
	if res, _, err := Execute(cq, q, eng, opt); err == nil || res != nil {
		t.Fatalf("Execute = (%v, %v) with a panicking fold call, want an error and no result", res, err)
	}
}

// TestParallelScanMatchesSerial checks the concatenation merge: a parallel
// filter+project must produce the same multiset of rows as serial execution
// (order may differ across workers).
func TestParallelScanMatchesSerial(t *testing.T) {
	cat := parCatalog(t, 100_000)
	src := "SELECT i0, i1, f0 FROM t WHERE i0 < 0"
	cq, q := compileOn(t, cat, src)
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	serial, _, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) == 0 {
		t.Fatal("predicate selected no rows; test is vacuous")
	}
	a, b := sortedRows(serial), sortedRows(par)
	if len(a) != len(b) {
		t.Fatalf("parallel returned %d rows, serial %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row multiset differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if st.PipelinesParallel != 1 || st.SerialFallback != "" {
		t.Errorf("stats = %+v, want one parallel pipeline and no fallback", st)
	}
}

// TestParallelUnmergeableFallsBack pins that whether partial states can be
// combined is decided by the code generator alone. A module that exports no
// fold or build barrier — a library-style group table or join — says so
// itself, and the executor runs it serially with the reason recorded, results
// unchanged.
func TestParallelUnmergeableFallsBack(t *testing.T) {
	jcat, err := workload.JoinPair(2000, 8000, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	for _, c := range []struct {
		cat *catalog.Catalog
		src string
	}{
		{grpCatalog(t, 20_000, 100), "SELECT g0, COUNT(*), SUM(i0), MIN(i1) FROM t GROUP BY g0"},
		{jcat, "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"},
	} {
		if adhoc, _ := compileOn(t, c.cat, c.src); adhoc.SerialReason != "" || len(adhoc.Barriers) == 0 {
			t.Fatalf("%s: ad-hoc module has reason %q, barriers %+v", c.src, adhoc.SerialReason, adhoc.Barriers)
		}
		cq, q := compileStyledOn(t, c.cat, c.src, Style{LibraryHT: true})
		if cq.SerialReason != fallbackUnmergeable {
			t.Fatalf("%s: library module has reason %q, want %q", c.src, cq.SerialReason, fallbackUnmergeable)
		}
		for _, e := range decodeBin(t, cq).Exports {
			if strings.Contains(e.Name, "group") || strings.Contains(e.Name, "join") {
				t.Errorf("%s: library module exports %s", c.src, e.Name)
			}
		}
		serial, _, err := Execute(cq, q, eng, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sortedRows(par)) != fmt.Sprint(sortedRows(serial)) {
			t.Errorf("%s: rows under the fallback differ from serial", c.src)
		}
		if st.SerialFallback != fallbackUnmergeable || st.Workers != 1 || st.PipelinesParallel != 0 || st.PipelinesSerial == 0 || st.GroupsMerged != 0 {
			t.Errorf("%s: workers %d, parallel %d, serial %d, fallback %q; want a recorded serial run",
				c.src, st.Workers, st.PipelinesParallel, st.PipelinesSerial, st.SerialFallback)
		}
	}
}

// TestParallelJoinMatchesSerial checks the join build barrier: the build side
// is materialized into per-worker tuple chunks, every worker's chunks are
// aliased into every other worker's memory at the barrier, each worker builds
// its own directory over all of them, and the probe pipeline then runs
// embarrassingly parallel. Results must match serial execution exactly and
// the stats must show both pipelines parallel with the secondaries' chunks
// shared.
func TestParallelJoinMatchesSerial(t *testing.T) {
	cat, err := workload.JoinPair(2000, 8000, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	for _, src := range []string{
		// Keyless aggregate over a join: parAgg with a join barrier.
		"SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk",
		// Join feeding GROUP BY: join barrier composes with the group merge.
		"SELECT build.nk, COUNT(*) FROM build, probe WHERE build.pk = probe.fk GROUP BY build.nk",
		// Plain join scan: both pipelines parallel, concatenation merge.
		"SELECT build.pk, probe.payload FROM build, probe WHERE build.pk = probe.fk AND probe.fk < 500",
	} {
		cq, q := compileOn(t, cat, src)
		serial, sst, err := Execute(cq, q, eng, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: serial: %v", src, err)
		}
		if sst.JoinPartitionsMerged != 0 {
			t.Errorf("%s: serial run reports %d partitions shared", src, sst.JoinPartitionsMerged)
		}
		par, st, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 512})
		if err != nil {
			t.Fatalf("%s: parallel: %v", src, err)
		}
		a, b := sortedRows(serial), sortedRows(par)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: parallel join disagrees with serial (%d vs %d rows)", src, len(b), len(a))
			continue
		}
		if st.SerialFallback != "" || st.PipelinesParallel < 2 {
			t.Errorf("%s: stats = parallel %d, serial %d, fallback %q; want both pipelines parallel",
				src, st.PipelinesParallel, st.PipelinesSerial, st.SerialFallback)
		}
		if st.JoinPartitionsMerged != 3 {
			t.Errorf("%s: JoinPartitionsMerged = %d, want workers − 1 = 3", src, st.JoinPartitionsMerged)
		}
	}
}

// decodeBin decodes the query's module, function names included.
func decodeBin(t *testing.T, cq *CompiledQuery) *wasm.Module {
	t.Helper()
	m, err := wasm.DecodeNamed(cq.Bin)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestJoinModuleExports pins what a join module exports for its barrier — two
// functions per table — and that nothing of the protocols it replaced (grow,
// dump, recv, presize, merge, install) is generated any more.
func TestJoinModuleExports(t *testing.T) {
	cat, err := workload.JoinPair(100, 200, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	// A bare join: an aggregate on top would add its own fold export.
	cq, _ := compileOn(t, cat, "SELECT build.pk, probe.payload FROM build, probe WHERE build.pk = probe.fk")
	var barrier []string
	for _, e := range decodeBin(t, cq).Exports {
		if strings.HasPrefix(e.Name, "q_join_") {
			barrier = append(barrier, e.Name)
		}
	}
	if fmt.Sprint(barrier) != "[q_join_reserve_0 q_join_finish_0]" {
		t.Errorf("join barrier exports = %v, want reserve and finish", barrier)
	}
	wat := cq.WAT()
	for _, gone := range []string{"grow_join", "_dump", "_recv", "_presize", "_merge", "_install"} {
		if strings.Contains(wat, gone) {
			t.Errorf("generated join module still contains a %q function", gone)
		}
	}
}

// TestJoinBarrierFaults fires the executor's fault points inside the build
// barrier of a 4-worker join: a morsel failure in the first and in a later
// finish call, a rewiring failure between alias and finish, a cancellation
// and an engine panic inside finish. Each must surface as its typed error
// with no partial result; armed points that inject nothing must leave the
// result identical to serial execution. With 2500-row morsels the build
// pipeline is hits 1–4 and the 4 workers' finish calls (one per chunk, at
// least 3 chunks) are hits 5–16 at least; the probe comes after. The
// package's TestMain sweeps for leaked goroutines.
func TestJoinBarrierFaults(t *testing.T) {
	cat, err := workload.JoinPair(10_000, 20_000, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	cq, q := compileOn(t, cat, "SELECT COUNT(*), SUM(build.payload) FROM build, probe WHERE build.pk = probe.fk")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})
	want, _, err := Execute(cq, q, eng, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected barrier failure")
	var cancel context.CancelFunc // of the running case's context
	for _, c := range []struct {
		name  string
		point string
		fn    func(hit int) error
		check func(err error) bool
	}{
		{"first-finish", "core-morsel", faultpoint.AtHit(5, boom), func(err error) bool { return errors.Is(err, boom) }},
		{"later-finish", "core-morsel", faultpoint.AtHit(9, boom), func(err error) bool { return errors.Is(err, boom) }},
		{"alias-to-finish", "core-rewire", faultpoint.Always(boom), func(err error) bool {
			return errors.Is(err, boom) && strings.Contains(err.Error(), "rewiring join chunks")
		}},
		{"cancel-in-finish", "core-morsel", func(hit int) error {
			if hit == 6 {
				cancel()
			}
			return nil
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panic-in-finish", "core-morsel", func(hit int) error {
			if hit == 5 {
				faultpoint.Enable("engine-call-panic", faultpoint.Always(errors.New("simulated engine bug")))
			}
			return nil
		}, func(err error) bool { return err != nil }},
		{"armed-idle", "core-rewire", func(int) error { return nil }, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			faultpoint.Enable(c.point, c.fn)
			defer faultpoint.Disable(c.point)
			defer faultpoint.Disable("engine-call-panic")
			res, _, err := Execute(cq, q, eng, ExecOptions{Parallelism: 4, MorselRows: 2500, Ctx: ctx})
			if c.check == nil {
				if err != nil || fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("Execute = (%v, %v), want the serial result %v", res, err, want.Rows)
				}
				return
			}
			if !c.check(err) || res != nil {
				t.Fatalf("Execute = (%v, %v), want the injected failure and no result", res, err)
			}
		})
	}

	// Serially the barrier is the same code: the build is one morsel, so hit 2
	// is the first finish call.
	faultpoint.Enable("core-morsel", faultpoint.AtHit(2, boom))
	defer faultpoint.Disable("core-morsel")
	if res, _, err := Execute(cq, q, eng, ExecOptions{}); !errors.Is(err, boom) || res != nil ||
		!strings.Contains(err.Error(), "q_join_finish_0") {
		t.Fatalf("serial Execute = (%v, %v), want the injected failure inside q_join_finish_0", res, err)
	}
}

// TestParallelFaultInjection injects a morsel failure while 4 workers are
// dispatching; the first failure must stop the pool and surface. Run under
// -race this also exercises the dispatch counter and stop flag.
func TestParallelFaultInjection(t *testing.T) {
	cat := parCatalog(t, 200_000)
	cq, q := compileOn(t, cat, "SELECT COUNT(*), SUM(i0) FROM t WHERE i0 < 1000000")
	boom := errors.New("injected parallel morsel failure")
	faultpoint.Enable("core-morsel", faultpoint.AtHit(5, boom))
	defer faultpoint.Disable("core-morsel")
	_, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}),
		ExecOptions{Parallelism: 4, MorselRows: 4096})
	if !errors.Is(err, boom) {
		t.Fatalf("Execute returned %v, want injected failure", err)
	}
}

// TestParallelCancellationMidPipeline cancels the context while the pool is
// mid-pipeline; every worker must stop and the query must report the
// context's error.
func TestParallelCancellationMidPipeline(t *testing.T) {
	cat := parCatalog(t, 200_000)
	cq, q := compileOn(t, cat, "SELECT COUNT(*), SUM(i0) FROM t WHERE i0 < 1000000")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultpoint.Enable("core-morsel", func(hit int) error {
		if hit == 3 {
			cancel()
		}
		return nil
	})
	defer faultpoint.Disable("core-morsel")
	_, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}),
		ExecOptions{Parallelism: 4, MorselRows: 4096, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
}

// TestFuelUsedContract pins the ExecStats.FuelUsed contract: consumption is
// reported against a user budget, and the implicit metering a cancellable
// context arms is never reported as consumption.
func TestFuelUsedContract(t *testing.T) {
	cat := parCatalog(t, 50_000)
	cq, q := compileOn(t, cat, "SELECT COUNT(*) FROM t WHERE i0 < 1000000")
	eng := engine.New(engine.Config{Tier: engine.TierLiftoff})

	// User budget: ample fuel, consumption must be positive and bounded.
	budget := int64(1) << 40
	_, st, err := Execute(cq, q, eng, ExecOptions{Fuel: budget})
	if err != nil {
		t.Fatal(err)
	}
	if st.FuelUsed <= 0 || st.FuelUsed >= budget {
		t.Errorf("FuelUsed = %d with budget %d, want 0 < used < budget", st.FuelUsed, budget)
	}

	// Cancellable context, no user budget: metering is armed internally (the
	// watchdog needs interruption points) but FuelUsed must stay 0.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, st, err = Execute(cq, q, eng, ExecOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if st.FuelUsed != 0 {
		t.Errorf("FuelUsed = %d under implicit metering, want 0", st.FuelUsed)
	}

	// A user fuel budget also forces serial execution (one sequential
	// account), recorded as such.
	_, st, err = Execute(cq, q, eng, ExecOptions{Fuel: budget, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.SerialFallback != fallbackFuel || st.Workers != 1 {
		t.Errorf("fuel+parallelism: workers %d fallback %q, want serial with %q",
			st.Workers, st.SerialFallback, fallbackFuel)
	}
}

// TestLimitShortCircuit checks the host-side LIMIT guard: once the drain has
// LIMIT rows the remaining morsels must be skipped, observable as a morsel
// count far below the scan's total.
func TestLimitShortCircuit(t *testing.T) {
	cat := parCatalog(t, 200_000)
	cq, q := compileOn(t, cat, "SELECT i0 FROM t LIMIT 5")
	faultpoint.Enable("core-morsel", func(int) error { return nil })
	defer faultpoint.Disable("core-morsel")
	res, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierLiftoff}),
		ExecOptions{MorselRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	// 200k rows at 1k per morsel is 200 morsels; the first already satisfies
	// the limit.
	if hits := faultpoint.Hits("core-morsel"); hits > 3 {
		t.Errorf("scan ran %d morsels after the limit was satisfied", hits)
	}

	// LIMIT 0 must decode nothing at all.
	cq0, q0 := compileOn(t, cat, "SELECT i0 FROM t LIMIT 0")
	res0, _, err := Execute(cq0, q0, engine.New(engine.Config{Tier: engine.TierLiftoff}), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res0.Rows))
	}
}
