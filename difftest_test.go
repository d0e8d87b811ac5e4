package wasmdb_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wasmdb"
)

// allBackends lists every execution architecture; differential tests demand
// bit-identical result sets across all of them.
var allBackends = []wasmdb.Backend{
	wasmdb.BackendWasm,
	wasmdb.BackendWasmLiftoff,
	wasmdb.BackendWasmTurbofan,
	wasmdb.BackendHyperLike,
	wasmdb.BackendVectorized,
	wasmdb.BackendVolcano,
}

func formatSorted(t *testing.T, r *wasmdb.Result, ordered bool) string {
	t.Helper()
	lines := make([]string, r.NumRows())
	for i := range lines {
		lines[i] = strings.Join(r.Row(i), "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// diffQuery runs src on every backend and on auto and requires one answer.
func diffQuery(t *testing.T, db *wasmdb.DB, src string, ordered bool) {
	t.Helper()
	var ref string
	var refBackend wasmdb.Backend
	for _, b := range append(allBackends[:len(allBackends):len(allBackends)], wasmdb.BackendAuto) {
		res, err := db.Query(src, wasmdb.WithBackend(b))
		if err != nil {
			t.Fatalf("%v: %v\nquery: %s", b, err, src)
		}
		got := formatSorted(t, res, ordered)
		if ref == "" && refBackend == 0 {
			ref, refBackend = got, b
			continue
		}
		if got != ref {
			t.Errorf("%v disagrees with %v on %q:\n--- %v ---\n%s\n--- %v ---\n%s",
				b, refBackend, src, refBackend, clip(ref), b, clip(got))
		}
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "\n…"
	}
	return s
}

func tpchDB(t *testing.T) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTPCHDifferential runs every reproduced TPC-H query on every backend
// and requires identical results — the project's primary correctness
// oracle.
func TestTPCHDifferential(t *testing.T) {
	db := tpchDB(t)
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			src, ok := wasmdb.TPCHQuery(id)
			if !ok {
				t.Fatalf("unknown query %s", id)
			}
			ordered := strings.Contains(src, "ORDER BY")
			diffQuery(t, db, src, ordered)
		})
	}
}

// TestMicroDifferential covers the §8.2-style building blocks plus edge
// cases on every backend.
func TestMicroDifferential(t *testing.T) {
	db := tpchDB(t)
	queries := []struct {
		src     string
		ordered bool
	}{
		{"SELECT COUNT(*) FROM lineitem", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25 AND l_discount < 0.05", false},
		{"SELECT COUNT(*), SUM(l_extendedprice), MIN(l_shipdate), MAX(l_shipdate) FROM lineitem", false},
		{"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag", false},
		{"SELECT l_shipmode, MIN(l_quantity), MAX(l_quantity) FROM lineitem GROUP BY l_shipmode", false},
		{"SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority", true},
		{"SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice > 200000.0", false},
		{"SELECT c_mktsegment, COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey GROUP BY c_mktsegment", false},
		{"SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 25", true},
		{"SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_shipmode = 'AIR' ORDER BY l_orderkey, l_linenumber LIMIT 100", true},
		{"SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%'", false},
		{"SELECT COUNT(*) FROM part WHERE p_type LIKE '%BRASS'", false},
		{"SELECT COUNT(*) FROM part WHERE p_type LIKE '%ANODIZED%'", false},
		{"SELECT COUNT(*) FROM part WHERE p_type NOT LIKE 'PROMO%'", false},
		{"SELECT COUNT(*) FROM orders WHERE o_orderpriority IN ('1-URGENT', '5-LOW')", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 20", false},
		{"SELECT COUNT(*) FROM lineitem WHERE NOT (l_quantity < 25)", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10 OR l_quantity > 45", false},
		{"SELECT EXTRACT(YEAR FROM o_orderdate) AS y, COUNT(*) FROM orders GROUP BY EXTRACT(YEAR FROM o_orderdate) ORDER BY y", true},
		{"SELECT SUM(CASE WHEN l_discount > 0.05 THEN l_extendedprice ELSE 0 END) FROM lineitem", false},
		// An INT CASE whose BIGINT literal arm is cast down to INT.
		{"SELECT SUM(CASE WHEN l_linenumber > 3 THEN l_linenumber ELSE 0 END) FROM lineitem", false},
		{"SELECT l_returnflag, SUM(CASE WHEN l_linenumber > 3 THEN l_linenumber ELSE 0 END) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag", true},
		{"SELECT COUNT(*) FROM lineitem WHERE l_commitdate < l_receiptdate", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'", false},
		{"SELECT COUNT(*), AVG(l_quantity) FROM lineitem WHERE l_discount = 0.03", false},
		// HAVING: grouped, keyless, and zero-input cases.
		{"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) > 100", false},
		{"SELECT l_shipmode, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_shipmode HAVING MIN(l_quantity) < 5 OR COUNT(*) > 500", false},
		{"SELECT l_returnflag, AVG(l_quantity) FROM lineitem GROUP BY l_returnflag HAVING AVG(l_quantity) > 25 ORDER BY l_returnflag", true},
		{"SELECT COUNT(*) FROM lineitem HAVING COUNT(*) > 0", false},
		{"SELECT COUNT(*) FROM lineitem HAVING COUNT(*) < 0", false},
		// Zero input rows: the zero group exists and HAVING decides its fate.
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 0 HAVING COUNT(*) = 0", false},
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 0 HAVING COUNT(*) > 0", false},
		{"SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity < 0 GROUP BY l_returnflag HAVING COUNT(*) > 0", false},
		// Empty result sets.
		{"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 0", false},
		{"SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity < 0 GROUP BY l_returnflag", false},
		{"SELECT l_orderkey FROM lineitem WHERE l_quantity < 0", false},
	}
	for _, q := range queries {
		diffQuery(t, db, q.src, q.ordered)
	}
}

// TestCreateInsertQuery exercises the DDL/DML path of the public API.
func TestCreateInsertQuery(t *testing.T) {
	db := wasmdb.Open()
	mustExec := func(s string) {
		t.Helper()
		if err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustExec(`CREATE TABLE items (id INT, name CHAR(12), price DECIMAL(10,2), added DATE)`)
	mustExec(`INSERT INTO items VALUES
		(1, 'hammer', 9.99, DATE '2024-01-05'),
		(2, 'wrench', 14.50, DATE '2024-02-11'),
		(3, 'pliers', 7.25, DATE '2024-02-28'),
		(4, 'saw', 22.00, DATE '2024-03-02')`)
	diffQuery(t, db, "SELECT name, price FROM items WHERE price < 15.00 ORDER BY price DESC", true)
	res, err := db.Query("SELECT COUNT(*), SUM(price) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)[0] != "4" || res.Row(0)[1] != "53.74" {
		t.Fatalf("unexpected: %v", res.Row(0))
	}
}

// TestDeepExpressionVectorized evaluates a CASE of 40 WHENs — more scratch
// vectors per batch than the vectorized engine keeps in its fixed pool — on
// the vectorized backend and through auto, which routes a table this small
// there, and requires volcano's answer from both.
func TestDeepExpressionVectorized(t *testing.T) {
	db := wasmdb.Open()
	if err := db.Exec("CREATE TABLE deep (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	values := make([]string, 2000)
	for i := range values {
		values[i] = fmt.Sprintf("(%d, %d)", i, i%50)
	}
	if err := db.Exec("INSERT INTO deep VALUES " + strings.Join(values, ", ")); err != nil {
		t.Fatal(err)
	}
	var c strings.Builder
	c.WriteString("CASE")
	for w := 0; w < 40; w++ {
		fmt.Fprintf(&c, " WHEN v = %d THEN k * %d", w, w+1)
	}
	c.WriteString(" ELSE k END")
	for _, q := range []struct {
		src     string
		ordered bool
	}{
		{"SELECT SUM(" + c.String() + ") FROM deep", false},
		{"SELECT k, " + c.String() + " FROM deep WHERE k < 300 ORDER BY k", true},
		{"SELECT v, SUM(" + c.String() + ") FROM deep GROUP BY v", false},
	} {
		ref, err := db.Query(q.src, wasmdb.WithBackend(wasmdb.BackendVolcano))
		if err != nil {
			t.Fatal(err)
		}
		want := formatSorted(t, ref, q.ordered)
		for _, b := range []wasmdb.Backend{wasmdb.BackendVectorized, wasmdb.BackendAuto} {
			res, err := db.Query(q.src, wasmdb.WithBackend(b))
			if err != nil {
				t.Fatalf("%v: %v\nquery: %s", b, err, q.src)
			}
			if got := formatSorted(t, res, q.ordered); got != want {
				t.Errorf("%v disagrees with volcano on %.60q…:\n%s\nwant\n%s", b, q.src, clip(got), clip(want))
			}
		}
	}
}

// TestAdaptiveStatsExposed checks the paper's observable: morsels migrate
// from the baseline tier to the optimized tier mid-query.
func TestAdaptiveStatsExposed(t *testing.T) {
	db := tpchDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30",
		wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithMorselRows(256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MorselsLiftoff+res.Stats.MorselsTurbofan == 0 {
		t.Error("no morsel accounting")
	}
	if res.Stats.ModuleBytes == 0 || res.Stats.Translate == 0 {
		t.Errorf("missing stats: %+v", res.Stats)
	}
}

func TestExplain(t *testing.T) {
	db := tpchDB(t)
	src, _ := wasmdb.TPCHQuery("Q3")
	out, err := db.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HashJoin", "GroupBy", "Sort", "pipelines", "scan lineitem"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	wat, err := db.ExplainWAT("SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"$pipeline_0", "$qsort_", "$grow_group", "$q_init"} {
		if !strings.Contains(wat, want) {
			t.Errorf("WAT missing %q", want)
		}
	}
}

// TestEmptyInputAggregates pins the rule of DESIGN.md §5.4 on every backend:
// the dialect has no NULL, so a keyless aggregation over no rows yields one
// row of zero-initialised state — COUNT and SUM are 0, MIN and MAX the zero
// value of their type, AVG is 0/0 = NaN — and HAVING filters that row like
// any other. The input is emptied by a predicate, by a join that matches
// nothing, and by a parameter bound on a warm prepared statement.
func TestEmptyInputAggregates(t *testing.T) {
	db := tpchDB(t)
	const aggs = "MIN(l_quantity), MAX(l_shipdate), AVG(l_quantity), SUM(l_extendedprice), COUNT(*), MIN(l_orderkey)"
	const zeroRow = "0.00|1970-01-01|NaN|0.00|0|0"
	cases := []struct{ src, want string }{
		{"SELECT " + aggs + " FROM lineitem WHERE l_quantity < 0", zeroRow},
		{"SELECT " + aggs + " FROM lineitem WHERE l_quantity < 0 HAVING COUNT(*) = 0", zeroRow},
		{"SELECT " + aggs + " FROM lineitem WHERE l_quantity < 0 HAVING MIN(l_quantity) = 0", zeroRow},
		{"SELECT " + aggs + " FROM lineitem WHERE l_quantity < 0 HAVING COUNT(*) > 0", ""},
		{"SELECT " + aggs + " FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_totalprice < 0", zeroRow},
		{"SELECT l_returnflag, " + aggs + " FROM lineitem WHERE l_quantity < 0 GROUP BY l_returnflag", ""},
	}
	backends := append([]wasmdb.Backend{wasmdb.BackendAuto}, allBackends...)
	for _, c := range cases {
		for _, b := range backends {
			res, err := db.Query(c.src, wasmdb.WithBackend(b))
			if err != nil {
				t.Fatalf("%v: %v\nquery: %s", b, err, c.src)
			}
			if got := formatSorted(t, res, true); got != c.want {
				t.Errorf("%v on %q:\n got %q\nwant %q", b, c.src, got, c.want)
			}
		}
	}

	stmt, err := db.Prepare("SELECT " + aggs + " FROM lineitem WHERE l_quantity < ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		// Warm the plan with a bind that selects rows, then empty the input.
		warm, err := stmt.QueryContext(context.Background(), []any{24}, wasmdb.WithBackend(b))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if warm.NumRows() != 1 || warm.Row(0)[4] == "0" {
			t.Fatalf("%v: warm-up bind selected nothing: %v", b, warm.Row(0))
		}
		res, err := stmt.QueryContext(context.Background(), []any{-1}, wasmdb.WithBackend(b))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if got := formatSorted(t, res, true); got != zeroRow {
			t.Errorf("%v, prepared with an emptying bind:\n got %q\nwant %q", b, got, zeroRow)
		}
	}
}
