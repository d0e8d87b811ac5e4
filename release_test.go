package wasmdb_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wasmdb"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/leakcheck"
)

// releaseQuery runs on two workers through a join build barrier (the build
// side's pages are aliased between the workers) and a group-by barrier, so
// its workers own heap pages and hold each other's.
const releaseQuery = "SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM orders, lineitem " +
	"WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority"

// releaseOpts runs releaseQuery on two workers with small morsels: 15
// morsels of orders, then 60 of lineitem at TPC-H SF 0.01.
var releaseOpts = []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasm),
	wasmdb.WithParallelism(2), wasmdb.WithMorselRows(1000)}

// releaseBaseline returns releaseQuery's serial result and checks that the
// two-worker run agrees and really shares join pages between its workers.
func releaseBaseline(t *testing.T, db *wasmdb.DB) string {
	t.Helper()
	serial, err := db.Query(releaseQuery, wasmdb.WithBackend(wasmdb.BackendWasm))
	if err != nil {
		t.Fatal(err)
	}
	want := formatSorted(t, serial, false)
	res := checkAgainst(t, db, want)
	if res.Stats.Workers != 2 || res.Stats.JoinPartitionsMerged == 0 {
		t.Fatalf("two-worker run: %d workers, %d join partitions merged; want 2 workers sharing the build",
			res.Stats.Workers, res.Stats.JoinPartitionsMerged)
	}
	return want
}

// checkAgainst runs releaseQuery on two workers and compares it with the
// serial result. Run after a stopped query, it takes the pages that query
// released: a worker still writing them would change the result, and under
// -race its writes would race with the clearing.
func checkAgainst(t *testing.T, db *wasmdb.DB, want string) *wasmdb.Result {
	t.Helper()
	res, err := db.Query(releaseQuery, releaseOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := formatSorted(t, res, false); got != want {
		t.Fatalf("two-worker result differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", clip(want), clip(got))
	}
	return res
}

// TestParallelReleaseAfterMorselFault stops the two-worker query by failing
// one worker's morsel — in the build pipeline, and twice in the probe
// pipeline after the build pages were aliased — while the other worker is
// inside a morsel. The workers' pages and arenas go back to their pools only
// once both have returned: the next run takes them and must still agree with
// serial execution, and no worker goroutine may outlive the query.
func TestParallelReleaseAfterMorselFault(t *testing.T) {
	defer leakcheck.Check(t)
	db := tpchDB(t)
	want := releaseBaseline(t, db)
	boom := errors.New("injected morsel failure")
	for _, at := range []int{2, 20, 45} {
		faultpoint.Enable("core-morsel", faultpoint.AtHit(at, boom))
		res, err := db.Query(releaseQuery, releaseOpts...)
		faultpoint.Disable("core-morsel")
		if !errors.Is(err, boom) || res != nil {
			t.Fatalf("fault at morsel %d: Query returned %v (result %v), want the injected failure", at, err, res != nil)
		}
		checkAgainst(t, db, want)
	}
}

// TestParallelReleaseAfterCancel is the same under cancellation: the context
// fires from one worker's morsel dispatch, so both workers are stopped by the
// watchdog's interrupt in the middle of a morsel.
func TestParallelReleaseAfterCancel(t *testing.T) {
	defer leakcheck.Check(t)
	db := tpchDB(t)
	want := releaseBaseline(t, db)
	for _, at := range []int{2, 20, 45} {
		ctx, cancel := context.WithCancel(context.Background())
		faultpoint.Enable("core-morsel", func(h int) error {
			if h == at {
				cancel()
			}
			return nil
		})
		res, err := db.QueryContext(ctx, releaseQuery, releaseOpts...)
		faultpoint.Disable("core-morsel")
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel at morsel %d: Query returned %v (result %v), want context.Canceled", at, err, res != nil)
		}
		checkAgainst(t, db, want)
	}
}

// TestParallelQueriesLeaveColumnsIntact runs joins, group-bys and sorts on
// one and two workers and on the vectorized baseline, each twice so the
// second run commits pages the first released, and after each run compares
// every column of the mapped tables with a copy taken before: a page
// installed by Map belongs to its table and is never cleared or recycled.
func TestParallelQueriesLeaveColumnsIntact(t *testing.T) {
	db := tpchDB(t)
	type snapshot struct {
		name      string
		data, was []byte
	}
	var snaps []snapshot
	for _, name := range []string{"orders", "lineitem"} {
		tbl, err := db.TestCatalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tbl.Columns {
			snaps = append(snaps, snapshot{name + "." + c.Name, c.Data(), bytes.Clone(c.Data())})
		}
	}
	queries := []string{
		releaseQuery,
		"SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag, l_linestatus",
		"SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE l_quantity < 10 ORDER BY l_orderkey, l_linenumber",
	}
	for _, src := range queries {
		for _, opts := range [][]wasmdb.Option{
			{wasmdb.WithBackend(wasmdb.BackendWasm)},
			{wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithParallelism(2)},
			{wasmdb.WithBackend(wasmdb.BackendVectorized)},
		} {
			for range 2 {
				if _, err := db.Query(src, opts...); err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				for _, s := range snaps {
					if !bytes.Equal(s.data, s.was) {
						t.Fatalf("column %s changed after %s", s.name, src)
					}
				}
			}
		}
	}
}
