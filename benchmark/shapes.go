package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// This file generates every SQL text the benchmark issues. Inputs come from
// the seed only; the engine sees nothing but the generated SQL.

func date(y, m, d int) string {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Format("2006-01-02")
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var (
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
)

// tpchQueries returns Q1, Q3, Q6, Q12 and Q14 with the TPC-H substitution
// parameters drawn from their specified domains, which keep each query's
// selectivity, and so its work, nearly constant across seeds.
func tpchQueries(rng *rand.Rand) []string {
	q1 := fmt.Sprintf(`
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '%d' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`, 60+rng.Intn(61))

	d3 := date(1995, 3, 1+rng.Intn(31))
	q3 := fmt.Sprintf(`
SELECT l_orderkey,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '%s'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '%s'
  AND l_shipdate > DATE '%s'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10`, pick(rng, segments), d3, d3)

	disc := 2 + rng.Intn(8)
	q6 := fmt.Sprintf(`
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '%s'
  AND l_shipdate < DATE '%[1]s' + INTERVAL '1' YEAR
  AND l_discount BETWEEN 0.%02d AND 0.%02d
  AND l_quantity < %d`, date(1993+rng.Intn(5), 1, 1), disc-1, disc+1, 24+rng.Intn(2))

	m1 := rng.Intn(len(shipModes))
	m2 := (m1 + 1 + rng.Intn(len(shipModes)-1)) % len(shipModes)
	q12 := fmt.Sprintf(`
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey
  AND l_shipmode IN ('%s', '%s')
  AND l_commitdate < l_receiptdate
  AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '%s'
  AND l_receiptdate < DATE '%[3]s' + INTERVAL '1' YEAR
GROUP BY l_shipmode
ORDER BY l_shipmode`, shipModes[m1], shipModes[m2], date(1993+rng.Intn(5), 1, 1))

	q14 := fmt.Sprintf(`
SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END) /
       SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '%s'
  AND l_shipdate < DATE '%[1]s' + INTERVAL '1' MONTH`, date(1993+rng.Intn(5), 1+rng.Intn(12), 1))

	return []string{q1, q3, q6, q12, q14}
}

// smallShapes returns the 64 distinct plan shapes of adhoc-small. The
// structure of shape i — predicate count, aggregate count, grouping mode,
// join — is a fixed grid, so every seed compiles the same mix of plan
// structures and the round's work barely depends on the seed; the seed
// chooses the columns, operators, aggregate functions and literals. Distinct
// grid cells differ in plan structure, so their plan-cache fingerprints
// differ even after literals are hoisted into parameters.
//
// Every predicate keeps at least a quarter of lineitem and the predicate
// columns are independent in the generator (no two date columns, no
// price-with-quantity, no flag-with-date), so no conjunction selects nothing:
// on empty input the backends disagree about MIN, MAX and AVG, and a
// workload must not fail.
func smallShapes(rng *rand.Rand) []string {
	type pred struct{ col, op, lit string }
	// cmp draws "col < lit" with lit in [ltLo, ltLo+n) or "col >= lit" with
	// lit in [geLo, geLo+n).
	cmp := func(col, lt, ge string, ltLo, geLo, n int, format string) pred {
		if rng.Intn(2) == 0 {
			return pred{col, lt, fmt.Sprintf(format, ltLo+rng.Intn(n))}
		}
		return pred{col, ge, fmt.Sprintf(format, geLo+rng.Intn(n))}
	}
	preds := func() []pred {
		modes := rng.Perm(len(shipModes))
		mode := pred{"l_shipmode", "<>", "'" + shipModes[modes[0]] + "'"}
		if rng.Intn(2) == 0 {
			mode = pred{"l_shipmode", "IN", fmt.Sprintf("('%s', '%s', '%s')",
				shipModes[modes[0]], shipModes[modes[1]], shipModes[modes[2]])}
		}
		ship := pred{"l_shipdate", "<", "DATE '" + date(1995+rng.Intn(4), 1+rng.Intn(12), 1) + "'"}
		if rng.Intn(2) == 0 {
			ship = pred{"l_shipdate", ">=", "DATE '" + date(1992+rng.Intn(4), 1+rng.Intn(12), 1) + "'"}
		}
		return []pred{
			cmp("l_linenumber", "<=", ">", 2, 1, 3, "%d"),
			{"l_suppkey", pick(rng, []string{"<", ">="}), "2"},
			cmp("l_quantity", "<", ">=", 20, 10, 21, "%d"),
			cmp("l_discount", "<", ">=", 5, 2, 5, "0.0%d"),
			cmp("l_tax", "<=", ">", 3, 1, 4, "0.0%d"),
			ship,
			mode,
			{"l_shipinstruct", pick(rng, []string{"=", "<>"}), "'" + pick(rng, []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}) + "'"},
		}
	}
	aggs := func() []string {
		dec := []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"}
		return []string{
			"COUNT(*)",
			"SUM(" + pick(rng, dec) + ")",
			"AVG(" + pick(rng, dec) + ")",
			"MIN(" + pick(rng, []string{"l_shipdate", "l_quantity", "l_partkey"}) + ")",
			"MAX(" + pick(rng, []string{"l_receiptdate", "l_extendedprice", "l_orderkey"}) + ")",
			"SUM(l_extendedprice * (1 - l_discount))",
		}
	}
	lineKeys := []string{"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct", "l_linenumber"}
	joinKeys := append(append([]string{}, lineKeys...), "o_orderpriority", "o_orderstatus")

	// Predicates, aggregates and keys are dealt to the shapes round-robin
	// from seeded offsets, not drawn per shape: over the 64 shapes every seed
	// uses each of them about equally often, which keeps the round's work
	// nearly the same from seed to seed.
	offP, offA, offK := rng.Intn(8), rng.Intn(6), rng.Intn(len(joinKeys))

	var out []string
	// The grid: 4 predicate counts × 3 aggregate counts × 3 grouping modes ×
	// 2 join settings = 72 cells; every ninth is skipped to leave 64.
	for cell := 0; cell < 72; cell++ {
		if cell%9 == 8 {
			continue
		}
		nPred, nAgg, mode, join := cell%4, 1+cell/4%3, cell/12%3, cell/36 == 1
		n := len(out)
		ps, as := preds(), aggs()

		from, where := "lineitem", []string{}
		keyPool := lineKeys
		if join {
			from = "lineitem, orders"
			where = append(where, "l_orderkey = o_orderkey")
			keyPool = joinKeys
		}
		for j := 0; j < nPred; j++ {
			p := ps[(offP+3*n+j)%len(ps)]
			where = append(where, p.col+" "+p.op+" "+p.lit)
		}
		var sel, keys []string
		if mode > 0 { // grouped; ordered by the whole key so the row order is total
			keys = []string{keyPool[(offK+n)%len(keyPool)]}
			if n%2 == 1 {
				keys = append(keys, keyPool[(offK+n+2)%len(keyPool)])
			}
			sel = append(sel, keys...)
		}
		for j := 0; j < nAgg; j++ {
			sel = append(sel, as[(offA+5*n+j)%len(as)])
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "SELECT %s FROM %s", strings.Join(sel, ", "), from)
		if len(where) > 0 {
			fmt.Fprintf(&sb, " WHERE %s", strings.Join(where, " AND "))
		}
		if mode > 0 {
			fmt.Fprintf(&sb, " GROUP BY %[1]s ORDER BY %[1]s", strings.Join(keys, ", "))
		}
		if mode == 2 {
			fmt.Fprintf(&sb, " LIMIT %d", 3+rng.Intn(6))
		}
		out = append(out, sb.String())
	}
	return out
}

// autoShapes returns the ten shapes of auto-mixed. At SF 0.02 their base
// tables straddle every autopilot threshold: supplier (200 rows) routes to
// volcano, customer (3 k) to vectorized, partsupp (16 k) and orders (30 k)
// to baseline-only compilation, lineitem (120 k) to adaptive tier-up, the
// keyless lineitem aggregate with a two-worker grant. The literal domains
// are narrow, so selectivities — and with them the autopilot's
// feedback-corrected decisions — are the same for every seed.
func autoShapes(rng *rand.Rand) []string {
	bal := func() string { return fmt.Sprintf("%d.00", 4500+rng.Intn(1000)) }
	return []string{
		"SELECT COUNT(*), SUM(s_acctbal) FROM supplier WHERE s_acctbal > " + bal(),
		"SELECT s_nationkey, COUNT(*), MAX(s_acctbal) FROM supplier GROUP BY s_nationkey ORDER BY s_nationkey",
		"SELECT COUNT(*), MIN(c_acctbal), MAX(c_acctbal) FROM customer WHERE c_mktsegment = '" + pick(rng, segments) + "'",
		"SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal < " + bal() + fmt.Sprintf(" AND c_nationkey < %d", 12+rng.Intn(3)),
		fmt.Sprintf("SELECT COUNT(*), SUM(ps_supplycost) FROM partsupp WHERE ps_availqty < %d", 4500+rng.Intn(1000)),
		fmt.Sprintf("SELECT COUNT(*), MIN(ps_supplycost), MAX(ps_availqty) FROM partsupp WHERE ps_supplycost > %d.00", 450+rng.Intn(100)),
		"SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate >= DATE '" + date(1995, 1+rng.Intn(6), 1+rng.Intn(28)) + "'",
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderstatus = '" + pick(rng, []string{"F", "O"}) +
			"' GROUP BY o_orderpriority ORDER BY o_orderpriority",
		fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_discount >= 0.0%d AND l_quantity < %d",
			4+rng.Intn(2), 24+rng.Intn(3)),
		"SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate >= DATE '" +
			date(1994, 1+rng.Intn(6), 1+rng.Intn(28)) + "' GROUP BY l_shipmode ORDER BY l_shipmode",
	}
}

// servingShape is one parameterized statement of serving-warm with the 16
// argument vectors its requests rotate over.
type servingShape struct {
	sql  string // with ? placeholders
	args [][]any
}

// literal renders the shape with argument vector i substituted, the text
// whose BackendVolcano result is the reference for that request.
func (s servingShape) literal(i int) string {
	parts := strings.Split(s.sql, "?")
	var sb strings.Builder
	for k, p := range parts {
		sb.WriteString(p)
		if k < len(s.args[i]) {
			switch a := s.args[i][k].(type) {
			case string:
				fmt.Fprintf(&sb, "DATE '%s'", a)
			default:
				fmt.Fprint(&sb, a)
			}
		}
	}
	return sb.String()
}

// servingShapes returns three ~1 ms statements over lineitem and orders at
// SF 0.002: a filtered keyless aggregate, a filtered group-by, and a join.
func servingShapes(rng *rand.Rand) []servingShape {
	shapes := []servingShape{
		{sql: "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < ? AND l_linenumber <= ?"},
		{sql: "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate >= ? GROUP BY o_orderpriority ORDER BY o_orderpriority"},
		{sql: "SELECT COUNT(*), SUM(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_totalprice > ? AND l_shipdate < ?"},
	}
	// Narrow argument domains: the 16 vectors differ, their selectivity
	// hardly does, so the request mix costs the same for every seed.
	for i := 0; i < 16; i++ {
		shapes[0].args = append(shapes[0].args, []any{22 + rng.Intn(6), 4 + rng.Intn(3)})
		shapes[1].args = append(shapes[1].args, []any{date(1995, 1+rng.Intn(12), 1+rng.Intn(28))})
		shapes[2].args = append(shapes[2].args, []any{140000 + rng.Intn(20000), date(1996, 1+rng.Intn(12), 1)})
	}
	return shapes
}
