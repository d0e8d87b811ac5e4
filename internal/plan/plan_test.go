package plan

import (
	"math"
	"strings"
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
)

func testCatalog(t *testing.T, rRows, sRows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	r, err := cat.Create("r", []catalog.ColumnDef{
		{Name: "id", Type: types.TInt32},
		{Name: "x", Type: types.TInt32},
		{Name: "y", Type: types.TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rRows; i++ {
		r.AppendRow(types.NewInt32(int32(i)), types.NewInt32(int32(i%10)), types.NewFloat64(float64(i)))
	}
	s, err := cat.Create("s", []catalog.ColumnDef{
		{Name: "rid", Type: types.TInt32},
		{Name: "v", Type: types.TInt64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sRows; i++ {
		s.AppendRow(types.NewInt32(int32(i%rRows)), types.NewInt64(int64(i)))
	}
	u, err := cat.Create("u", []catalog.ColumnDef{
		{Name: "sid", Type: types.TInt32},
		{Name: "w", Type: types.TInt64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		u.AppendRow(types.NewInt32(int32(i)), types.NewInt64(int64(i)))
	}
	return cat
}

func buildPlan(t *testing.T, cat *catalog.Catalog, src string) Node {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPushdownIntoScan(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, "SELECT x FROM r WHERE x < 5 AND y > 0.5")
	proj := p.(*Project)
	scan := proj.Input.(*Scan)
	if len(scan.Filter) != 2 {
		t.Errorf("filters not pushed: %v", scan.Filter)
	}
}

func TestJoinBuildsOnSmallerSide(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, "SELECT r.x FROM r, s WHERE r.id = s.rid")
	proj := p.(*Project)
	j := proj.Input.(*HashJoin)
	bs := j.Build.(*Scan)
	ps := j.Probe.(*Scan)
	if bs.Table.Name != "r" || ps.Table.Name != "s" {
		t.Errorf("build=%s probe=%s; want build=r probe=s", bs.Table.Name, ps.Table.Name)
	}
	if len(j.BuildKeys) != 1 || len(j.ProbeKeys) != 1 {
		t.Fatalf("keys: %v / %v", j.BuildKeys, j.ProbeKeys)
	}
	// Build key must reference r (#0), probe key s (#1).
	bt := map[int]bool{}
	sema.TablesUsed(j.BuildKeys[0], bt)
	if !bt[0] || len(bt) != 1 {
		t.Errorf("build key tables: %v", bt)
	}
}

func TestThreeWayJoinOrder(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, `SELECT r.x FROM r, s, u WHERE r.id = s.rid AND s.v = u.sid`)
	// u is tiny (5 rows): it should be the seed, joined with s, then r.
	proj := p.(*Project)
	top, ok := proj.Input.(*HashJoin)
	if !ok {
		t.Fatalf("top: %T", proj.Input)
	}
	inner, ok := top.Probe.(*HashJoin)
	if !ok {
		// Or build side, depending on sizes.
		inner, ok = top.Build.(*HashJoin)
	}
	if !ok {
		t.Fatalf("no nested join: %s", Describe(p))
	}
	_ = inner
	// All three tables must be available at the top.
	if len(top.Tables()) != 2 && len(proj.Input.Tables()) != 3 {
		t.Errorf("tables at top: %v", proj.Input.Tables())
	}
}

func TestResidualPredicate(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, "SELECT r.x FROM r, s WHERE r.id = s.rid AND r.x < s.v")
	j := p.(*Project).Input.(*HashJoin)
	if len(j.Residual) != 1 {
		t.Errorf("residual: %v", j.Residual)
	}
}

func TestCrossProductRejected(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	stmt, _ := sql.ParseSelect("SELECT r.x FROM r, s")
	q, err := sema.Analyze(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(q); err == nil {
		t.Error("cross product accepted")
	}
	stmt, _ = sql.ParseSelect("SELECT r.x FROM r, s WHERE r.id < s.rid")
	q, _ = sema.Analyze(stmt, cat)
	if _, err := Build(q); err == nil {
		t.Error("non-equi-only join accepted")
	}
}

func TestTowerShape(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, "SELECT x, COUNT(*) AS n FROM r GROUP BY x ORDER BY n DESC LIMIT 3")
	proj := p.(*Project)
	lim := proj.Input.(*Limit)
	srt := lim.Input.(*Sort)
	grp := srt.Input.(*Group)
	if _, ok := grp.Input.(*Scan); !ok {
		t.Errorf("base: %T", grp.Input)
	}
	if lim.N != 3 || len(srt.Keys) != 1 || !srt.Keys[0].Desc {
		t.Errorf("tower: limit=%d sort=%v", lim.N, srt.Keys)
	}
}

func TestDescribeAndPipelines(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, `SELECT r.x, MIN(s.v) FROM r, s WHERE r.x < 42 AND r.id = s.rid GROUP BY r.x`)
	desc := Describe(p)
	for _, want := range []string{"HashJoin", "GroupBy", "Scan r", "Scan s", "filter"} {
		if !strings.Contains(desc, want) {
			t.Errorf("describe missing %q:\n%s", want, desc)
		}
	}
	pipes := Pipelines(p)
	// The paper's Figure 3 example: three pipelines.
	if len(pipes) != 3 {
		t.Fatalf("pipelines: %d\n%v", len(pipes), pipes)
	}
	if !strings.Contains(pipes[0].String(), "scan r") || !strings.Contains(pipes[0].Sink, "join hash table") {
		t.Errorf("pipeline 1: %s", pipes[0])
	}
	if !strings.Contains(pipes[1].String(), "scan s") {
		t.Errorf("pipeline 2: %s", pipes[1])
	}
	if !strings.Contains(pipes[2].Source, "groups") {
		t.Errorf("pipeline 3: %s", pipes[2])
	}
}

func TestGlobalAggregateSingleGroup(t *testing.T) {
	cat := testCatalog(t, 100, 1000)
	p := buildPlan(t, cat, "SELECT COUNT(*) FROM r")
	g := p.(*Project).Input.(*Group)
	if len(g.Keys) != 0 || g.Rows() != 1 {
		t.Errorf("global group: keys=%d rows=%v", len(g.Keys), g.Rows())
	}
}

// Degenerate cardinality estimates — zero, negative, NaN, or overflowing —
// must not escape the planner: every Rows() is clamped to a finite value in
// [1, 1e18] at the planner boundary.
func TestRowsEstimatesSanitized(t *testing.T) {
	nan := math.NaN()
	leaf := &Scan{est: 100}
	nodes := map[string]Node{
		"scan-nan":       &Scan{est: nan},
		"scan-zero":      &Scan{est: 0},
		"scan-negative":  &Scan{est: -17},
		"scan-inf":       &Scan{est: math.Inf(1)},
		"join-nan":       &HashJoin{Build: leaf, Probe: leaf, est: nan},
		"join-negative":  &HashJoin{Build: leaf, Probe: leaf, est: -1},
		"group-zero":     &Group{Input: leaf, est: 0},
		"sort-over-nan":  &Sort{Input: &Scan{est: nan}},
		"limit-zero":     &Limit{Input: leaf, N: 0},
		"project-od-nan": &Project{Input: &Scan{est: nan}},
	}
	for name, n := range nodes {
		r := n.Rows()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 1 || r > maxRowsEst {
			t.Errorf("%s: Rows() = %v, want finite in [1, %g]", name, r, maxRowsEst)
		}
	}
}

// An empty table with a long conjunct chain drives the multiplicative
// selectivity estimate toward zero through every operator of the tower; all
// of them must still report >= 1.
func TestBuiltPlanEstimatesFinite(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Create("e", []catalog.ColumnDef{
		{Name: "a", Type: types.TInt32},
		{Name: "b", Type: types.TInt32},
	}); err != nil {
		t.Fatal(err)
	}
	p := buildPlan(t, cat,
		"SELECT a, COUNT(*) AS n FROM e WHERE a < 1 AND b < 2 AND a < 3 AND b < 4 AND a < 5 "+
			"GROUP BY a ORDER BY n LIMIT 10")
	var walk func(n Node)
	walk = func(n Node) {
		r := n.Rows()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 1 {
			t.Errorf("%T: Rows() = %v, want finite >= 1", n, r)
		}
		switch x := n.(type) {
		case *HashJoin:
			walk(x.Build)
			walk(x.Probe)
		case *Group:
			walk(x.Input)
		case *Sort:
			walk(x.Input)
		case *Limit:
			walk(x.Input)
		case *Project:
			walk(x.Input)
		}
	}
	walk(p)
}
