package vectorized

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/types"
	"wasmdb/internal/volcano"
)

// corpusCatalog holds t, two columns of each type the kernels know
// (INT, BIGINT, DECIMAL, DOUBLE, DATE, BOOLEAN) plus a CHAR column and a
// small group key over 3000 rows — two batches, and more than a sort
// array's first allocation; u and w are join partners for t.
func corpusCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rng := rand.New(rand.NewSource(25))
	names := []string{"alpha", "beta", "gamma", "PROMO", "ab", "omega", "zeta  x", "delta", "", "eta"}
	create := func(name string, defs []catalog.ColumnDef, n int, row func(i int) []types.Value) {
		tbl, err := cat.Create(name, defs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			tbl.AppendRow(row(i)...)
		}
	}
	create("t", []catalog.ColumnDef{
		{Name: "id", Type: types.TInt32}, {Name: "g", Type: types.TInt32},
		{Name: "i", Type: types.TInt32}, {Name: "i2", Type: types.TInt32},
		{Name: "b", Type: types.TInt64}, {Name: "b2", Type: types.TInt64},
		{Name: "d", Type: types.TDecimal(12, 2)}, {Name: "d2", Type: types.TDecimal(12, 2)},
		{Name: "f", Type: types.TFloat64}, {Name: "f2", Type: types.TFloat64},
		{Name: "dt", Type: types.TDate}, {Name: "dt2", Type: types.TDate},
		{Name: "o", Type: types.TBool}, {Name: "o2", Type: types.TBool},
		{Name: "c", Type: types.TChar(6)},
	}, 3000, func(i int) []types.Value {
		return []types.Value{
			types.NewInt32(int32(i)), types.NewInt32(int32(rng.Intn(7))),
			types.NewInt32(int32(rng.Intn(2000) - 1000)), types.NewInt32(int32(rng.Intn(2000) - 1000)),
			types.NewInt64(rng.Int63n(1e12) - 5e11), types.NewInt64(rng.Int63n(1e12) - 5e11),
			types.NewDecimal(int64(rng.Intn(100000)-50000), 12, 2), types.NewDecimal(int64(rng.Intn(100000)-50000), 12, 2),
			types.NewFloat64(rng.NormFloat64() * 100), types.NewFloat64(float64(rng.Intn(40)) + 0.5),
			types.NewDate(int32(8000 + rng.Intn(3000))), types.NewDate(int32(8000 + rng.Intn(3000))),
			types.NewBool(rng.Intn(2) == 0), types.NewBool(rng.Intn(2) == 0),
			types.NewChar(names[rng.Intn(5)], 6),
		}
	})
	create("u", []catalog.ColumnDef{
		{Name: "uk", Type: types.TInt32}, {Name: "uf", Type: types.TFloat64},
		{Name: "uc", Type: types.TChar(8)}, {Name: "ub", Type: types.TInt64},
	}, 200, func(i int) []types.Value {
		return []types.Value{
			types.NewInt32(int32(rng.Intn(100))), types.NewFloat64(float64(rng.Intn(40)) + 0.5),
			types.NewChar(names[rng.Intn(len(names))], 8), types.NewInt64(int64(rng.Intn(1000))),
		}
	})
	create("w", []catalog.ColumnDef{
		{Name: "wk", Type: types.TInt32}, {Name: "wv", Type: types.TInt32},
	}, 300, func(i int) []types.Value {
		return []types.Value{types.NewInt32(int32(rng.Intn(7))), types.NewInt32(int32(rng.Intn(100)))}
	})
	return cat
}

// corpusQueries crosses the column types with comparisons — against a
// constant and against a second column, as a predicate and as a value —
// arithmetic, aggregates and sort directions, and adds the CHAR, join and
// expression shapes that reach the rest of the kernel library.
func corpusQueries() []struct {
	src     string
	ordered bool
} {
	type q = struct {
		src     string
		ordered bool
	}
	var out []q
	cmps := []string{"=", "<>", "<", "<=", ">", ">="}
	for _, c := range []struct{ col, k string }{
		{"i", "17"}, {"b", "123456789"}, {"d", "12.5"}, {"f", "3.25"}, {"dt", "DATE '1995-06-01'"}, {"o", "TRUE"},
	} {
		ops := cmps
		if c.col == "o" {
			ops = cmps[:2]
		}
		for _, op := range ops {
			out = append(out,
				q{fmt.Sprintf("SELECT COUNT(*) FROM t WHERE %s %s %s", c.col, op, c.k), false},
				q{fmt.Sprintf("SELECT COUNT(*) FROM t WHERE %s %s %s2", c.col, op, c.col), false},
				q{fmt.Sprintf("SELECT id, %s %s %s, %s %s %s2 FROM t WHERE id < 64", c.col, op, c.k, c.col, op, c.col), false})
		}
		if c.col == "o" || c.col == "dt" {
			continue
		}
		out = append(out,
			q{fmt.Sprintf("SELECT id, %[1]s + %[1]s2, %[1]s - %[2]s, %[1]s * %[2]s, %[1]s - %[1]s2, %[1]s + %[2]s FROM t WHERE id < 100", c.col, c.k), false},
			q{fmt.Sprintf("SELECT g, COUNT(*), COUNT(%[1]s), SUM(%[1]s), MIN(%[1]s), MAX(%[1]s) FROM t GROUP BY g", c.col), false},
			q{fmt.Sprintf("SELECT COUNT(*), SUM(%[1]s), MIN(%[1]s), MAX(%[1]s) FROM t WHERE g < 3", c.col), false},
			q{fmt.Sprintf("SELECT id, %[1]s FROM t ORDER BY %[1]s ASC, id", c.col), true},
			q{fmt.Sprintf("SELECT id, %[1]s FROM t ORDER BY %[1]s DESC, id DESC", c.col), true})
	}
	return append(out,
		q{"SELECT id, i * i2, f * f2, f / f2, f / 2.0, i % 7, i % (i2 + 1001), b % 97, d * d2, i + f, d + f, b + f FROM t WHERE id < 100", false},
		q{"SELECT id, o, o AND TRUE, o OR FALSE, o AND o2, o OR o2, NOT o, o = o2 FROM t WHERE id < 64", false},
		q{"SELECT COUNT(*) FROM t WHERE i < 0 OR f > 50.0", false},
		q{"SELECT id, EXTRACT(YEAR FROM dt), dt FROM t ORDER BY dt, id DESC", true},
		q{"SELECT MIN(dt), MAX(dt2), COUNT(*) FROM t", false},
		q{"SELECT id, CASE WHEN i < 0 THEN i WHEN f > 0.0 THEN 1 ELSE 0 END, CASE WHEN o THEN d ELSE d2 END FROM t WHERE id < 200", false},
		q{"SELECT COUNT(*) FROM t WHERE c = 'alpha'", false},
		q{"SELECT COUNT(*) FROM t WHERE c <> 'beta'", false},
		q{"SELECT COUNT(*) FROM t WHERE c LIKE 'a%'", false},
		q{"SELECT id, c = 'gamma', c <> 'ab', c LIKE '%a', c NOT LIKE 'P_OMO' FROM t WHERE id < 64", false},
		q{"SELECT c, COUNT(*), MIN(dt), SUM(f) FROM t GROUP BY c", false},
		q{"SELECT g, o, COUNT(*), MAX(b) FROM t GROUP BY g, o", false},
		q{"SELECT id, c, f FROM t WHERE id < 1500 ORDER BY c DESC, f", true},
		q{"SELECT id, c, i FROM t ORDER BY c, i DESC, id", true},
		// Joins: an INT key with a BIGINT payload, a DOUBLE key, a CHAR key
		// with CHAR payload and probe-side leaves of every element type,
		// and a join probed by another join's output under a residual.
		q{"SELECT COUNT(*), SUM(u.ub), SUM(t.i) FROM t, u WHERE t.g = u.uk", false},
		q{"SELECT COUNT(*), SUM(t.i), SUM(u.ub) FROM t, u WHERE t.f2 = u.uf", false},
		q{"SELECT t.id, t.c, u.uc, u.ub, t.o, t.b, t.f, t.dt FROM t, u WHERE t.c = u.uc AND t.i < -900", false},
		q{"SELECT COUNT(*), SUM(t.i + w.wv), SUM(u.ub) FROM t, u, w WHERE t.g = u.uk AND t.g = w.wk AND t.i + w.wv > 0", false},
	)
}

func runBoth(t *testing.T, cat *catalog.Catalog, src string) (vec, vol [][]types.Value, stats *Stats) {
	t.Helper()
	q, p := prepare(t, cat, src)
	var err error
	if _, vol, err = volcano.Run(q, p); err != nil {
		t.Fatalf("volcano: %s: %v", src, err)
	}
	if _, vec, stats, err = Run(q, p); err != nil {
		t.Fatalf("vectorized: %s: %v", src, err)
	}
	return vec, vol, stats
}

func formatRows(rows [][]types.Value, ordered bool) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// TestTypeOpCorpus runs the corpus on the vectorized engine and on volcano,
// requires the same rows from both, and requires every exported kernel to
// have been called: a kernel that nothing reaches is either dead or untested.
func TestTypeOpCorpus(t *testing.T) {
	cat := corpusCatalog(t)
	calls := map[string]int{}
	for _, c := range corpusQueries() {
		vec, vol, stats := runBoth(t, cat, c.src)
		if got, want := formatRows(vec, c.ordered), formatRows(vol, c.ordered); got != want {
			t.Errorf("%s\nvectorized:\n%.1500s\nvolcano:\n%.1500s", c.src, got, want)
		}
		for name, n := range stats.Calls {
			calls[name] += n
		}
	}
	for _, e := range buildKernelModule().Exports {
		if calls[e.Name] == 0 {
			t.Errorf("kernel %s is never called by the corpus", e.Name)
		}
	}
}
