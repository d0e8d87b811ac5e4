package core

import (
	"testing"

	"wasmdb/internal/catalog"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
)

// runStyled compiles with the given style and runs on turbofan.
func runStyled(t *testing.T, cat *catalog.Catalog, src string, style Style) *ResultSet {
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
		t.Fatalf("compile styled: %v", err)
	}
	res, _, err := Execute(cq, q, engine.New(engine.Config{Tier: engine.TierTurbofan}), ExecOptions{MorselRows: 700})
	if err != nil {
		t.Fatalf("execute styled: %v", err)
	}
	return res
}

// hyperStyle is the HyPer-like configuration: all library designs on.
var hyperStyle = Style{LibraryHT: true, LibrarySort: true, PredicatedSelection: true}

// styleCorpus is the query set of the style differentials below and of
// TestModuleGolden, over microCatalog. Ordered queries sort on a unique key,
// so their row order is part of the comparison.
var styleCorpus = []struct {
	src     string
	ordered bool
}{
	{"SELECT id, x FROM r WHERE g = 2 ORDER BY x DESC, id LIMIT 20", true},
	{"SELECT id, x FROM r WHERE g = 1 ORDER BY x, id LIMIT 50", true},
	{"SELECT name, COUNT(*) FROM r GROUP BY name ORDER BY name", true},
	{"SELECT g, SUM(big) FROM r GROUP BY g ORDER BY g", true},
	{"SELECT g, COUNT(*), SUM(big) FROM r GROUP BY g ORDER BY g", true},
	{"SELECT COUNT(*) FROM r WHERE x < 300", false},
	{"SELECT COUNT(*), SUM(big), MIN(x), MAX(x) FROM r WHERE y < 0.5", false},
	{"SELECT COUNT(*), SUM(big), MIN(x), MAX(x) FROM r WHERE x < 500 AND y < 0.7", false},
	{"SELECT g, COUNT(*), MIN(price), MAX(price) FROM r GROUP BY g", false},
	{"SELECT COUNT(*), SUM(s.v) FROM r, s WHERE r.id = s.rid", false},
	{"SELECT COUNT(*), SUM(s.v) FROM r, s WHERE r.id = s.rid AND r.x < 500", false},
	{"SELECT r.g, COUNT(*) FROM r JOIN s ON r.id = s.rid GROUP BY r.g", false},
	{"SELECT COUNT(*) FROM r WHERE x < -5", false},
	{"SELECT COUNT(*), MIN(x) FROM r WHERE x < -5", false}, // empty: min falls back to 0
}

// diffStyle runs every corpus query through the ad-hoc specialized compiler
// and through the given style and requires identical result sets
// (order-insensitive where the query does not fix the order).
func diffStyle(t *testing.T, cat *catalog.Catalog, style Style) {
	for _, c := range styleCorpus {
		spec, lib := runStyled(t, cat, c.src, Style{}), runStyled(t, cat, c.src, style)
		if c.ordered {
			if fmtRows(spec) != fmtRows(lib) {
				t.Errorf("%s:\nspecialized:\n%sstyled:\n%s", c.src, fmtRows(spec), fmtRows(lib))
			}
			continue
		}
		s1, s2 := sortedRows(spec), sortedRows(lib)
		if len(s1) != len(s2) {
			t.Errorf("%s: %d vs %d rows", c.src, len(s1), len(s2))
			continue
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Errorf("%s row %d:\n%s\nvs\n%s", c.src, i, s1[i], s2[i])
				break
			}
		}
	}
}

// TestStyledMatchesSpecialized pins the HyPer-like configuration to the
// ad-hoc specialized compiler.
func TestStyledMatchesSpecialized(t *testing.T) {
	diffStyle(t, microCatalog(t, 4000), hyperStyle)
}

// TestStyledFlagsIndividually exercises each library design alone (the
// ablation configurations) over the whole corpus.
func TestStyledFlagsIndividually(t *testing.T) {
	cat := microCatalog(t, 3000)
	for _, c := range []struct {
		name  string
		style Style
	}{
		{"library-ht", Style{LibraryHT: true}},
		{"library-sort", Style{LibrarySort: true}},
		{"predicated", Style{PredicatedSelection: true}},
	} {
		t.Run(c.name, func(t *testing.T) { diffStyle(t, cat, c.style) })
	}
}
