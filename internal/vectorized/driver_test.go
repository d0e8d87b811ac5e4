package vectorized

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
)

func testCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	r, err := cat.Create("r", []catalog.ColumnDef{
		{Name: "id", Type: types.TInt32},
		{Name: "x", Type: types.TInt32},
		{Name: "y", Type: types.TFloat64},
		{Name: "g", Type: types.TInt32},
		{Name: "price", Type: types.TDecimal(12, 2)},
		{Name: "name", Type: types.TChar(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	names := []string{"alpha", "beta", "gamma", "PROMO A", "PROMO B"}
	for i := 0; i < n; i++ {
		r.AppendRow(
			types.NewInt32(int32(i)),
			types.NewInt32(int32(rng.Intn(1000))),
			types.NewFloat64(rng.Float64()),
			types.NewInt32(int32(rng.Intn(7))),
			types.NewDecimal(int64(rng.Intn(100000)), 12, 2),
			types.NewChar(names[rng.Intn(len(names))], 8),
		)
	}
	s, err := cat.Create("s", []catalog.ColumnDef{
		{Name: "rid", Type: types.TInt32},
		{Name: "v", Type: types.TInt32},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*2; i++ {
		s.AppendRow(types.NewInt32(int32(rng.Intn(n))), types.NewInt32(int32(rng.Intn(100))))
	}
	return cat
}

// prepare parses, analyzes and plans src.
func prepare(t *testing.T, cat *catalog.Catalog, src string) (*sema.Query, plan.Node) {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	p, err := plan.Build(q)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q, p
}

func runVec(t *testing.T, cat *catalog.Catalog, src string) [][]types.Value {
	t.Helper()
	q, p := prepare(t, cat, src)
	_, rows, _, err := Run(q, p)
	if err != nil {
		t.Fatalf("vectorized run: %v", err)
	}
	return rows
}

func TestVecSelectCount(t *testing.T) {
	cat := testCatalog(t, 5000)
	rows := runVec(t, cat, "SELECT COUNT(*) FROM r WHERE x < 500")
	tbl, _ := cat.Table("r")
	xc, _ := tbl.Column("x")
	var want int64
	for i := 0; i < tbl.Rows(); i++ {
		if xc.I32At(i) < 500 {
			want++
		}
	}
	if len(rows) != 1 || rows[0][0].I != want {
		t.Fatalf("count = %v, want %d", rows, want)
	}
}

func TestVecProjection(t *testing.T) {
	cat := testCatalog(t, 100)
	rows := runVec(t, cat, "SELECT id, x + 1, name FROM r WHERE id < 7")
	if len(rows) != 7 {
		t.Fatalf("rows: %d", len(rows))
	}
	tbl, _ := cat.Table("r")
	xc, _ := tbl.Column("x")
	nc, _ := tbl.Column("name")
	for _, row := range rows {
		id := int(row[0].I)
		if row[1].I != int64(xc.I32At(id))+1 {
			t.Errorf("row %d: %v", id, row[1])
		}
		if row[2].S != nc.CharAt(id) {
			t.Errorf("row %d name: %q want %q", id, row[2].S, nc.CharAt(id))
		}
	}
}

func TestVecGroupBy(t *testing.T) {
	cat := testCatalog(t, 5000)
	rows := runVec(t, cat, "SELECT g, COUNT(*), SUM(price), MIN(x), MAX(x), AVG(y) FROM r GROUP BY g")
	tbl, _ := cat.Table("r")
	gc, _ := tbl.Column("g")
	xc, _ := tbl.Column("x")
	pc, _ := tbl.Column("price")
	yc, _ := tbl.Column("y")
	type agg struct {
		n        int64
		sum      int64
		min, max int32
		fsum     float64
	}
	want := map[int32]*agg{}
	for i := 0; i < tbl.Rows(); i++ {
		g := gc.I32At(i)
		a := want[g]
		if a == nil {
			a = &agg{min: xc.I32At(i), max: xc.I32At(i)}
			want[g] = a
		}
		a.n++
		a.sum += pc.I64At(i)
		a.fsum += yc.F64At(i)
		if xc.I32At(i) < a.min {
			a.min = xc.I32At(i)
		}
		if xc.I32At(i) > a.max {
			a.max = xc.I32At(i)
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups: %d want %d", len(rows), len(want))
	}
	for _, row := range rows {
		a := want[int32(row[0].I)]
		if a == nil {
			t.Fatalf("unknown group %v", row[0])
		}
		if row[1].I != a.n || row[2].I != a.sum || int32(row[3].I) != a.min || int32(row[4].I) != a.max {
			t.Errorf("group %d: %v want %+v", row[0].I, row, a)
		}
		avg := a.fsum / float64(a.n)
		if d := row[5].F - avg; d > 1e-9 || d < -1e-9 {
			t.Errorf("avg: %v want %v", row[5].F, avg)
		}
	}
}

func TestVecGroupByCharKey(t *testing.T) {
	cat := testCatalog(t, 3000)
	rows := runVec(t, cat, "SELECT name, COUNT(*) FROM r GROUP BY name")
	tbl, _ := cat.Table("r")
	nc, _ := tbl.Column("name")
	want := map[string]int64{}
	for i := 0; i < tbl.Rows(); i++ {
		want[nc.CharAt(i)]++
	}
	if len(rows) != len(want) {
		t.Fatalf("groups: %d want %d (%v)", len(rows), len(want), rows)
	}
	for _, row := range rows {
		if row[1].I != want[row[0].S] {
			t.Errorf("group %q: %d want %d", row[0].S, row[1].I, want[row[0].S])
		}
	}
}

func TestVecJoin(t *testing.T) {
	cat := testCatalog(t, 500)
	rows := runVec(t, cat, "SELECT COUNT(*), SUM(s.v) FROM r, s WHERE r.id = s.rid AND r.x < 300")
	tbl, _ := cat.Table("r")
	st, _ := cat.Table("s")
	xc, _ := tbl.Column("x")
	rid, _ := st.Column("rid")
	vc, _ := st.Column("v")
	var n, sum int64
	for i := 0; i < st.Rows(); i++ {
		if xc.I32At(int(rid.I32At(i))) < 300 {
			n++
			sum += int64(vc.I32At(i))
		}
	}
	if rows[0][0].I != n || rows[0][1].I != sum {
		t.Fatalf("join: %v want (%d,%d)", rows[0], n, sum)
	}
}

func TestVecOrderByLimit(t *testing.T) {
	cat := testCatalog(t, 2000)
	rows := runVec(t, cat, "SELECT id, x, name FROM r WHERE g = 3 ORDER BY x DESC, id ASC LIMIT 10")
	tbl, _ := cat.Table("r")
	gc, _ := tbl.Column("g")
	xc, _ := tbl.Column("x")
	type pair struct{ id, x int32 }
	var all []pair
	for i := 0; i < tbl.Rows(); i++ {
		if gc.I32At(i) == 3 {
			all = append(all, pair{int32(i), xc.I32At(i)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].x != all[j].x {
			return all[i].x > all[j].x
		}
		return all[i].id < all[j].id
	})
	if len(rows) != 10 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i, row := range rows {
		if int32(row[0].I) != all[i].id || int32(row[1].I) != all[i].x {
			t.Errorf("row %d: (%d,%d) want (%d,%d)", i, row[0].I, row[1].I, all[i].id, all[i].x)
		}
	}
}

func TestVecLikeAndCase(t *testing.T) {
	cat := testCatalog(t, 1000)
	rows := runVec(t, cat, `SELECT SUM(CASE WHEN name LIKE 'PROMO%' THEN price ELSE 0 END), SUM(price) FROM r`)
	tbl, _ := cat.Table("r")
	nc, _ := tbl.Column("name")
	pc, _ := tbl.Column("price")
	var promo, all int64
	for i := 0; i < tbl.Rows(); i++ {
		if strings.HasPrefix(nc.CharAt(i), "PROMO") {
			promo += pc.I64At(i)
		}
		all += pc.I64At(i)
	}
	if rows[0][0].I != promo || rows[0][1].I != all {
		t.Fatalf("case: %v want (%d,%d)", rows[0], promo, all)
	}
}

func TestVecEmptyGlobalAgg(t *testing.T) {
	cat := testCatalog(t, 100)
	rows := runVec(t, cat, "SELECT COUNT(*), SUM(price) FROM r WHERE x < -1")
	if len(rows) != 1 || rows[0][0].I != 0 || rows[0][1].I != 0 {
		t.Fatalf("empty agg: %v", rows)
	}
}

// TestRunErrors requires an error, not a panic, from a kernel that traps
// (an integer remainder by zero), from an expression the engine does not
// support, and from a projection below the plan's root.
func TestRunErrors(t *testing.T) {
	cat := testCatalog(t, 100)
	for _, src := range []string{"SELECT id, x % (x - x) FROM r", "SELECT id, name < 'beta' FROM r"} {
		q, p := prepare(t, cat, src)
		if _, _, _, err := Run(q, p); err == nil {
			t.Errorf("%s: no error", src)
		}
	}
	q, p := prepare(t, cat, "SELECT id FROM r")
	root := p.(*plan.Project)
	if _, _, _, err := Run(q, &plan.Project{Input: root, Cols: root.Cols}); err == nil {
		t.Error("a projection below the root: no error")
	}
}
