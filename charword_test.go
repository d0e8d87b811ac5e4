package wasmdb_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wasmdb"
)

// The CHAR corpus: CHAR(n) equality, IN lists, GROUP BY keys and join keys are
// compiled to straight-line 8/4/2/1-byte loads specialised to the widths, so
// the widths around those chunk sizes, the values that differ in a chunk's
// last byte or only past it, and padding compared across different widths are
// what it can get wrong. Every case runs on every backend, serially and on 2
// and 4 workers, cold, warm and as a prepared statement, in the ad-hoc and the
// HyPer-like code-generation style, against the tuple-at-a-time interpreter.

var charWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 25}

const charAlphabet = "abcdefghijklmnopqrstuvwxy" // 25 letters, one per byte of the widest column

// charPool returns the logical values the corpus draws from: empty and blank,
// leading, embedded and trailing spaces, every prefix of the alphabet that is
// a corpus width, each of those with its last byte changed, and 25-letter
// strings with only byte 7, 8, 15 or 16 changed — a chunk's last byte or the
// first byte after one.
func charPool() []string {
	pool := []string{"", " ", " a", "a b", "ab ", "abcdefgh ijk", "abcdefghijklmnop q"}
	for _, w := range charWidths {
		pool = append(pool, charAlphabet[:w], charAlphabet[:w-1]+"Z")
	}
	for _, at := range []int{7, 8, 15, 16} {
		pool = append(pool, charAlphabet[:at]+"#"+charAlphabet[at+1:])
	}
	return pool
}

// charDB creates the corpus tables with CREATE TABLE and INSERT: cw, one CHAR
// column per corpus width (cN is CHAR(N)), whose columns of a row mostly hold
// the same logical value so that comparisons across widths often hold; and
// the join tables jN (s CHAR(N), id INT) for N = 3, 8, 10, 25, of which the
// narrow one of each pair is the larger.
func charDB(t *testing.T) *wasmdb.DB {
	t.Helper()
	db := wasmdb.Open()
	exec := func(s string) {
		t.Helper()
		if err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", clip(s), err)
		}
	}
	pool := charPool()
	fits := func(w int) []string {
		var out []string
		for _, s := range pool {
			if len(s) <= w {
				out = append(out, s)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(42))
	cols := make([]string, len(charWidths))
	for i, w := range charWidths {
		cols[i] = fmt.Sprintf("c%d CHAR(%d)", w, w)
	}
	exec("CREATE TABLE cw (" + strings.Join(cols, ", ") + ", id INT)")
	var rows []string
	for id := 0; id < 240; id++ {
		s := pool[rng.Intn(len(pool))]
		vals := make([]string, len(charWidths))
		for i, w := range charWidths {
			v := s
			if len(v) > w || rng.Intn(5) == 0 {
				f := fits(w)
				v = f[rng.Intn(len(f))]
			}
			vals[i] = "'" + v + "'"
		}
		rows = append(rows, fmt.Sprintf("(%s, %d)", strings.Join(vals, ", "), id))
	}
	exec("INSERT INTO cw VALUES " + strings.Join(rows, ", "))

	for _, j := range []struct{ w, n int }{{3, 300}, {8, 60}, {10, 300}, {25, 60}} {
		exec(fmt.Sprintf("CREATE TABLE j%d (s CHAR(%d), id INT)", j.w, j.w))
		f := fits(j.w)
		rows = rows[:0]
		for id := 0; id < j.n; id++ {
			rows = append(rows, fmt.Sprintf("('%s', %d)", f[rng.Intn(len(f))], id))
		}
		exec(fmt.Sprintf("INSERT INTO j%d VALUES %s", j.w, strings.Join(rows, ", ")))
	}
	return db
}

func TestCharWordSemantics(t *testing.T) {
	db := charDB(t)

	// Column against column of another width, = and <>, in CASE conditions:
	// one row per cw row, one result column per comparison.
	var cmps []string
	for i := 0; i+1 < len(charWidths); i++ {
		for _, pair := range [][2]int{{charWidths[i], charWidths[i+1]}, {charWidths[i], 25}} {
			cmps = append(cmps, fmt.Sprintf("CASE WHEN c%d = c%d THEN 1 ELSE 0 END", pair[0], pair[1]),
				fmt.Sprintf("CASE WHEN c%d <> c%d THEN 1 ELSE 0 END", pair[1], pair[0]))
		}
	}
	// The vectorized baseline has kernels for CHAR against a constant only.
	noVectorized := func(b wasmdb.Backend) bool { return b == wasmdb.BackendVectorized }
	runJoinCase(t, db, joinCase{name: "column-vs-column", skip: noVectorized,
		adhoc: "SELECT id, " + strings.Join(cmps, ", ") + " FROM cw"})
	runJoinCase(t, db, joinCase{name: "column-vs-column-filter", skip: noVectorized,
		adhoc: "SELECT id FROM cw WHERE c3 = c8 OR c9 <> c16 AND c16 = c17 OR c10 = c25"})

	for _, w := range charWidths {
		col := fmt.Sprintf("c%d", w)
		exact, short := charAlphabet[:w], charAlphabet[:(w+1)/2]
		// Literals shorter than the column, as wide, wider but equal once
		// padded, and wider and different; = and <> in CASE, IN as the filter.
		longEq, longNe := exact+"  ", exact+"z"
		runJoinCase(t, db, joinCase{name: col + "-literals", adhoc: fmt.Sprintf(
			"SELECT id, CASE WHEN %[1]s <> '%[2]s' THEN 1 ELSE 0 END, CASE WHEN %[1]s = '%[3]s' THEN 1 ELSE 0 END"+
				" FROM cw WHERE %[1]s IN ('%[2]s', '%[4]s', '%[3]s', '%[5]s', '', ' a')", col, short, longEq, exact, longNe)})
		// A parameter: the prepared statement binds the values to slots of
		// the column's width.
		lastZ := charAlphabet[:w-1] + "Z"
		runJoinCase(t, db, joinCase{name: col + "-param",
			adhoc:    fmt.Sprintf("SELECT COUNT(*), SUM(id) FROM cw WHERE %[1]s = '%[2]s' OR %[1]s IN ('%[3]s', '%[4]s')", col, exact, short, lastZ),
			prepared: fmt.Sprintf("SELECT COUNT(*), SUM(id) FROM cw WHERE %[1]s = ? OR %[1]s IN (?, ?)", col),
			args:     []any{exact, short, lastZ}})
		runJoinCase(t, db, joinCase{name: col + "-group", adhoc: fmt.Sprintf("SELECT %[1]s, COUNT(*), SUM(id) FROM cw GROUP BY %[1]s", col)})
	}

	// Joins across widths: the larger, narrower table is probed by default;
	// five conjuncts on it make it the build side.
	for _, p := range [][2]int{{3, 8}, {10, 25}} {
		narrow, wide := fmt.Sprintf("j%d", p[0]), fmt.Sprintf("j%d", p[1])
		on := fmt.Sprintf("SELECT %[1]s.id, %[2]s.id FROM %[1]s, %[2]s WHERE %[1]s.s = %[2]s.s", narrow, wide)
		shrink := fmt.Sprintf(" AND %[1]s.id >= 0 AND %[1]s.id < 1000 AND %[1]s.id <> -1 AND %[1]s.id > -5 AND %[1]s.id <= 999", narrow)
		for build, src := range map[string]string{wide: on, narrow: on + shrink} {
			plan, err := db.Explain(src)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "build:\n      Scan "+build+" (") {
				t.Fatalf("%s does not build %s:\n%s", src, build, plan)
			}
			runJoinCase(t, db, joinCase{name: "join-build-" + build, adhoc: src})
		}
	}
}
