package wasmdb_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"wasmdb"
	"wasmdb/internal/obs"
	"wasmdb/internal/types"
)

// The build-once join corpus: the shapes a join that materializes its build
// side into chunks and builds the table at a barrier can get wrong — nothing
// to build, nothing to find, one long probe chain, a chunk that ends exactly
// on a tuple, two tables allocating in turns — each run on every backend,
// serially and on 2 and 4 workers, cold, warm and as a prepared statement,
// and compared byte for byte with the tuple-at-a-time interpreter.

// joinTables creates the named tables (DDL after the name) and appends rows
// through the catalog, which is much faster than INSERT for 50 k rows and can
// plant values SQL has no literal for.
func joinTables(t *testing.T, ddl map[string]string, rows map[string][][]types.Value) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	for name, cols := range ddl {
		if err := db.Exec("CREATE TABLE " + name + " (" + cols + ")"); err != nil {
			t.Fatal(err)
		}
		tbl, err := db.TestCatalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[name] {
			if err := tbl.AppendRow(r...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func ints(vs ...int) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt32(int32(v))
	}
	return out
}

// joinCase is one statement of the corpus. prepared is the same statement
// with `?` for the literals in args; want, when set, is ground truth the
// reference itself is held to.
type joinCase struct {
	name, adhoc, prepared string
	args                  []any
	want                  string
	// parallel demands that the wasm backends really ran the join on the
	// pool, with the build side shared at a barrier.
	parallel bool
	// skip drops one backend from the case.
	skip func(wasmdb.Backend) bool
}

func runJoinCase(t *testing.T, db *wasmdb.DB, c joinCase) {
	t.Helper()
	ref, err := db.Query(c.adhoc, wasmdb.WithBackend(wasmdb.BackendVolcano), wasmdb.WithPlanCache(false))
	if err != nil {
		t.Fatalf("%s: reference: %v", c.name, err)
	}
	want := formatSorted(t, ref, false)
	if c.want != "" && want != c.want {
		t.Fatalf("%s: reference result\n%s\nis not the ground truth\n%s", c.name, clip(want), c.want)
	}
	var stmt *wasmdb.Stmt
	if c.prepared != "" {
		if stmt, err = db.Prepare(c.prepared); err != nil {
			t.Fatalf("%s: prepare: %v", c.name, err)
		}
	}
	for _, b := range allBackends {
		if c.skip != nil && c.skip(b) {
			continue
		}
		wasm := b != wasmdb.BackendVectorized && b != wasmdb.BackendVolcano
		for _, workers := range []int{1, 2, 4} {
			if !wasm && workers > 1 {
				continue // the interpreters ignore the pool: same run again
			}
			opts := []wasmdb.Option{wasmdb.WithBackend(b), wasmdb.WithParallelism(workers)}
			db.FlushPlanCache()
			for _, mode := range []string{"cold", "warm", "prepared"} {
				var res *wasmdb.Result
				if mode == "warm" && !wasm {
					continue // nothing is compiled, so nothing is cached
				} else if mode != "prepared" {
					res, err = db.Query(c.adhoc, opts...)
				} else if stmt == nil {
					continue
				} else {
					res, err = stmt.QueryContext(context.Background(), c.args, opts...)
				}
				if err != nil {
					t.Fatalf("%s: %v, %d workers, %s: %v", c.name, b, workers, mode, err)
				}
				if got := formatSorted(t, res, false); got != want {
					t.Errorf("%s: %v, %d workers, %s:\n%s\nwant\n%s", c.name, b, workers, mode, clip(got), clip(want))
				}
				if s := res.Stats; c.parallel && wasm && b != wasmdb.BackendHyperLike && workers > 1 &&
					(s.SerialFallback != "" || s.JoinPartitionsMerged == 0) {
					t.Errorf("%s: %v, %d workers, %s: fallback %q, %d partitions shared; want a parallel join",
						c.name, b, workers, mode, s.SerialFallback, s.JoinPartitionsMerged)
				}
			}
		}
	}
}

// buildBarrier runs src serially on the adaptive backend and returns what the
// first join build barrier reported on the trace.
func buildBarrier(t *testing.T, db *wasmdb.DB, src string) map[string]int64 {
	t.Helper()
	tr := wasmdb.NewTrace()
	if _, err := db.Query(src, wasmdb.WithTrace(tr), wasmdb.WithPlanCache(false)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		if ev.Name == obs.EvJoinMerge {
			out := map[string]int64{}
			for _, a := range ev.Args {
				out[a.Key] = a.Val
			}
			return out
		}
	}
	t.Fatalf("no %s event for %q", obs.EvJoinMerge, src)
	return nil
}

func TestJoinBuildDegenerate(t *testing.T) {
	ddl := map[string]string{"bld": "k INT, tag INT", "prb": "k INT, val INT"}
	seq := func(n, keyBase int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			out[i] = ints(keyBase+i, i)
		}
		return out
	}
	count := "SELECT COUNT(*) FROM bld, prb WHERE bld.k = prb.k"
	rows := "SELECT bld.tag, prb.val FROM bld, prb WHERE bld.k = prb.k"

	t.Run("empty-build", func(t *testing.T) {
		db := joinTables(t, ddl, map[string][][]types.Value{"prb": seq(50, 0)})
		runJoinCase(t, db, joinCase{name: "count", adhoc: count, want: "0"})
		runJoinCase(t, db, joinCase{name: "rows", adhoc: rows})
		if b := buildBarrier(t, db, count); b["tuples"] != 0 || b["chunks"] != 0 || b["slots"] != 1 {
			t.Errorf("empty build barrier reported %v; want no tuples, no chunks, one slot", b)
		}
	})
	t.Run("no-match", func(t *testing.T) {
		db := joinTables(t, ddl, map[string][][]types.Value{"bld": seq(100, 0), "prb": seq(200, 1000)})
		runJoinCase(t, db, joinCase{name: "count", adhoc: count, want: "0"})
		runJoinCase(t, db, joinCase{name: "rows", adhoc: rows})
	})
	t.Run("all-keys-equal", func(t *testing.T) {
		// 10 000 build tuples under one key: one probe chain a third of the
		// directory long, which two probe rows walk to the end. Every probe
		// row that lands inside the cluster walks out of it, so the probe side
		// is kept short: five conjuncts that hold for every build row make
		// the planner take bld (estimated at a 32nd) for the smaller side.
		bld := make([][]types.Value, 10_000)
		for i := range bld {
			bld[i] = ints(7, i)
		}
		prb := seq(330, 100)
		prb[5], prb[300] = ints(7, 1), ints(7, 2)
		db := joinTables(t, ddl, map[string][][]types.Value{"bld": bld, "prb": prb})
		const src = "SELECT COUNT(*), SUM(bld.tag), SUM(prb.val) FROM bld, prb WHERE bld.k = prb.k" +
			" AND bld.tag >= 0 AND bld.tag < 10000 AND bld.k < 8 AND bld.k > 6 AND bld.tag <= 9999"
		runJoinCase(t, db, joinCase{name: "count", adhoc: src, want: "20000|99990000|30000", parallel: true})
		if b := buildBarrier(t, db, src); b["tuples"] != 10_000 {
			t.Errorf("build barrier reported %v; want bld (10000 tuples) on the build side", b)
		}
	})
}

// TestJoinBuildChunkBoundary builds tables of exactly one chunk, one chunk
// plus a tuple, and — through the same cached module, by a bound parameter —
// nothing at all.
func TestJoinBuildChunkBoundary(t *testing.T) {
	bld := make([][]types.Value, 5000)
	for i := range bld {
		bld[i] = ints(i, i%1000)
	}
	prb := make([][]types.Value, 3000)
	for i := range prb {
		prb[i] = ints(i%1500, i)
	}
	db := joinTables(t, map[string]string{"bld": "id INT, k INT", "prb": "k INT, val INT"},
		map[string][][]types.Value{"bld": bld, "prb": prb})
	const q = "SELECT COUNT(*), SUM(prb.val) FROM bld, prb WHERE bld.k = prb.k AND bld.id < "
	// Tuples are hash + k + id = 16 bytes, so a 64 KiB chunk with its 8-byte
	// header holds 4095 of them; the barrier's own report pins that.
	for n, chunks := range map[int]int64{4095: 1, 4096: 2} {
		if b := buildBarrier(t, db, q+fmt.Sprint(n)); b["tuples"] != int64(n) || b["chunks"] != chunks {
			t.Fatalf("build of %d tuples reported %v; want %d chunk(s)", n, b, chunks)
		}
	}
	for _, n := range []int{4095, 0, 4096} {
		runJoinCase(t, db, joinCase{name: fmt.Sprint(n), adhoc: q + fmt.Sprint(n), prepared: q + "?", args: []any{n}})
	}
	// The emptied build side was served by the module compiled for a full one.
	stmt, err := db.Prepare(q + "?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(4096); err != nil {
		t.Fatal(err)
	}
	misses := db.PlanCacheStats().Misses
	res, err := stmt.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheStats().Misses != misses || res.Row(0)[0] != "0" {
		t.Errorf("bound 0: result %v after %d new misses; want a cache hit counting 0 rows",
			res.Row(0), db.PlanCacheStats().Misses-misses)
	}
}

// TestJoinBuildOnJoin makes the build side of one join the output of another:
// the pipeline that probes the inner table appends to the outer one, so the
// two tables' chunks and directories are allocated in turns.
func TestJoinBuildOnJoin(t *testing.T) {
	a := make([][]types.Value, 8)
	for i := range a {
		a[i] = ints(i, 100+i)
	}
	b := make([][]types.Value, 40_000)
	for i := range b {
		b[i] = ints(i%10, i%50_000)
	}
	c := make([][]types.Value, 50_000)
	for i := range c {
		c[i] = ints(i, i%97)
	}
	db := joinTables(t, map[string]string{"a": "k INT, tag INT", "b": "ak INT, ck INT", "c": "k INT, v INT"},
		map[string][][]types.Value{"a": a, "b": b, "c": c})
	const src = "SELECT COUNT(*), SUM(a.tag), SUM(c.v) FROM a, b, c WHERE a.k = b.ak AND b.ck = c.k"
	plan, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "probe join hash table ⇒ join hash table") {
		t.Fatalf("plan does not build a join table from a join:\n%s", plan)
	}
	runJoinCase(t, db, joinCase{name: "three-tables", adhoc: src, parallel: true})
	runJoinCase(t, db, joinCase{name: "three-tables-grouped", parallel: true,
		adhoc: "SELECT a.tag, COUNT(*), MAX(c.v) FROM a, b, c WHERE a.k = b.ak AND b.ck = c.k GROUP BY a.tag"})
}

// TestJoinBuildKeyCanonicalisation: the rules that make equal keys meet
// survive the stored hash — ±0.0 join, NaN joins nothing, CHAR keys compare
// without their padding whatever widths the two columns declare — and where
// the probe checks the stored hash first (CHAR and multi-column keys) equal
// keys still carry equal hashes.
func TestJoinBuildKeyCanonicalisation(t *testing.T) {
	fl := func(k float64, v int) []types.Value {
		return []types.Value{types.NewFloat64(k), types.NewInt32(int32(v))}
	}
	negZero := math.Copysign(0, -1)
	db := joinTables(t, map[string]string{"bld": "k DOUBLE, tag INT", "prb": "k DOUBLE, val INT"},
		map[string][][]types.Value{
			"bld": {fl(negZero, 1), fl(0, 2), fl(1.5, 3), fl(math.NaN(), 4)},
			"prb": {fl(0, 10), fl(negZero, 20), fl(1.5, 30), fl(2.5, 40), fl(math.NaN(), 50)},
		})
	runJoinCase(t, db, joinCase{name: "float", adhoc: "SELECT bld.tag, prb.val FROM bld, prb WHERE bld.k = prb.k",
		want: "1|10\n1|20\n2|10\n2|20\n3|30"})

	ch := func(s string, w, v int) []types.Value {
		return []types.Value{types.NewChar(s, w), types.NewInt32(int32(v))}
	}
	db = joinTables(t, map[string]string{"ca": "s CHAR(5), v INT", "cb": "s CHAR(12), w INT", "cc": "s CHAR(5), x INT"},
		map[string][][]types.Value{
			"ca": {ch("ab", 5, 1), ch("abc", 5, 2), ch("", 5, 3), ch("abcde", 5, 4)},
			"cb": {ch("ab", 12, 10), ch("abc", 12, 20), ch("abcde", 12, 30), ch("abcdef", 12, 40), ch("", 12, 50), ch("ab", 12, 60)},
			"cc": {ch("abc", 5, 7), ch("abcde", 5, 8), ch("abcd", 5, 9), ch("abc", 5, 6), ch("", 5, 5)},
		})
	runJoinCase(t, db, joinCase{name: "char", adhoc: "SELECT ca.v, cc.x FROM ca, cc WHERE ca.s = cc.s",
		want: "2|6\n2|7\n3|5\n4|8"})
	// The prepared form's extra conjunct moves the build side to the wider
	// column.
	runJoinCase(t, db, joinCase{name: "char-widths", adhoc: "SELECT ca.v, cb.w FROM ca, cb WHERE ca.s = cb.s",
		prepared: "SELECT ca.v, cb.w FROM ca, cb WHERE ca.s = cb.s AND cb.w < ?", args: []any{1000},
		want: "1|10\n1|60\n2|20\n3|50\n4|30"})

	two := make([][]types.Value, 300)
	for i := range two {
		two[i] = ints(i%10, i%7, i)
	}
	db = joinTables(t, map[string]string{"l": "a INT, b INT, x INT", "r": "a INT, b INT, y INT"},
		map[string][][]types.Value{"l": two[:120], "r": two})
	runJoinCase(t, db, joinCase{name: "two-keys",
		adhoc: "SELECT COUNT(*), SUM(l.x), SUM(r.y) FROM l, r WHERE l.a = r.a AND l.b = r.b"})
}

// TestJoinBuildMemoryLimitInReserve sets budgets the build barrier's reserve
// call cannot fit in: a typed error naming the reserve call, no panic, and
// the database keeps serving. Both budgets come from the serial run, whose
// memory does not depend on a schedule. Serially the directory is the last
// growth, so one page below the peak trips there. On two workers a worker's
// high-water mark depends on the morsel schedule — the guest allocator grows
// with 16 pages of headroom, and a worker that appended few chunks must alias
// many — so the serial peak less one directory is used: before its reserve
// call a worker holds at most the base, every build tuple in page-sized
// chunks and the headroom, which fits; after it, each worker must also hold
// the directory, and on every schedule some worker's growth does not fit.
func TestJoinBuildMemoryLimitInReserve(t *testing.T) {
	const n = 70_000
	bld := make([][]types.Value, n)
	for i := range bld {
		bld[i] = ints(i, i)
	}
	prb := make([][]types.Value, 80_000)
	for i := range prb {
		prb[i] = ints(i, 1)
	}
	db := joinTables(t, map[string]string{"bld": "k INT, tag INT", "prb": "k INT, val INT"},
		map[string][][]types.Value{"bld": bld, "prb": prb})
	const src = "SELECT COUNT(*) FROM bld, prb WHERE bld.k = prb.k"
	free, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	serial := free.Stats.PeakMemBytes
	directory := uint64(4) << bits.Len(2*n-1) // pow2ceil(2·n) four-byte slots
	for _, c := range []struct {
		workers int
		limit   uint64
	}{{1, serial - 64*1024}, {2, serial - directory}} {
		opts := []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasmLiftoff), wasmdb.WithParallelism(c.workers)}
		_, err = db.Query(src, append(opts, wasmdb.WithMemoryLimit(c.limit))...)
		if !errors.Is(err, wasmdb.ErrMemoryLimit) || !strings.Contains(err.Error(), "q_join_reserve_0") {
			t.Fatalf("%d workers: budgeted join returned %v; want ErrMemoryLimit from q_join_reserve_0", c.workers, err)
		}
		res, err := db.Query(src, opts...)
		if err != nil || res.Row(0)[0] != "70000" {
			t.Fatalf("%d workers: database unusable after the memory-limit failure: %v", c.workers, err)
		}
	}
}

// TestJoinBuildCommittedMemory pins what building once saves in pages: Q3 —
// a 30 k-tuple lineitem build that used to leave three outgrown tables behind
// serially (3 840 KiB) and three copies of the table per barrier on two
// workers (8 512 KiB) — commits its tuples once, one directory per worker,
// and aliases the rest.
func TestJoinBuildCommittedMemory(t *testing.T) {
	db := tpchDB(t)
	src, _ := wasmdb.TPCHQuery("Q3")
	for workers, ceiling := range map[int]uint64{1: 2048, 2: 3072} {
		res, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.CommittedMemBytes / 1024; got > ceiling {
			t.Errorf("Q3 on %d worker(s) committed %d KiB, ceiling %d", workers, got, ceiling)
		}
	}
}
