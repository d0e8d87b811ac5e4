// Package plan builds physical query execution plans (QEPs) from bound
// queries: selection pushdown into scans, extraction of equi-join
// predicates, greedy join ordering by estimated cardinality, and the
// aggregation/sort/limit/projection tower on top. The same QEP is consumed
// by the WebAssembly compiler (internal/core) and by all baseline engines,
// so measured differences are execution-architecture differences, not plan
// differences — the setup the paper's §8 relies on.
package plan

import (
	"fmt"
	"math"
	"strings"

	"wasmdb/internal/sema"
	"wasmdb/internal/storage"
)

// maxRowsEst caps cardinality estimates so downstream float arithmetic
// (cost models multiplying estimates, log terms) stays finite.
const maxRowsEst = 1e18

// sanitizeRows clamps a cardinality estimate to a finite value in
// [1, maxRowsEst]. Degenerate statistics — empty tables, long conjunct
// chains multiplying selectivity toward zero, NaN or Inf propagated through
// estimate arithmetic — must not escape the planner: every consumer of
// Rows() (join ordering, the autopilot cost model) assumes finite, ≥1
// estimates. Code generation no longer reads estimates at all — join tables
// are sized from the tuples actually built.
func sanitizeRows(est float64) float64 {
	if math.IsNaN(est) || est < 1 {
		return 1
	}
	if est > maxRowsEst {
		return maxRowsEst
	}
	return est
}

// Node is a physical plan operator.
type Node interface {
	// Rows estimates output cardinality.
	Rows() float64
	// Tables returns the set of query table indices available in this
	// node's output tuples.
	Tables() map[int]bool
	describe(sb *strings.Builder, indent int)
}

// Scan reads one table with pushed-down filters.
type Scan struct {
	TableIdx int
	Table    *storage.Table
	// Filter holds conjuncts referencing only this table, evaluated in
	// order.
	Filter []sema.Expr
	est    float64
}

// Rows implements Node.
func (s *Scan) Rows() float64 { return sanitizeRows(s.est) }

// Tables implements Node.
func (s *Scan) Tables() map[int]bool { return map[int]bool{s.TableIdx: true} }

func (s *Scan) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	fmt.Fprintf(sb, "Scan %s (#%d, %d rows)", s.Table.Name, s.TableIdx, s.Table.Rows())
	if len(s.Filter) > 0 {
		sb.WriteString(" filter:")
		for _, f := range s.Filter {
			sb.WriteString(" " + f.String())
		}
	}
	sb.WriteString("\n")
}

// HashJoin is an inner equi-join; the build side is materialized into an
// ad-hoc generated hash table, the probe side streams (§4.3).
type HashJoin struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []sema.Expr
	// Residual holds non-equi conjuncts spanning both sides, applied to
	// joined tuples.
	Residual []sema.Expr
	est      float64
}

// Rows implements Node.
func (j *HashJoin) Rows() float64 { return sanitizeRows(j.est) }

// Tables implements Node.
func (j *HashJoin) Tables() map[int]bool {
	out := map[int]bool{}
	for t := range j.Build.Tables() {
		out[t] = true
	}
	for t := range j.Probe.Tables() {
		out[t] = true
	}
	return out
}

func (j *HashJoin) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	sb.WriteString("HashJoin on")
	for i := range j.BuildKeys {
		fmt.Fprintf(sb, " %s=%s", j.BuildKeys[i], j.ProbeKeys[i])
	}
	for _, r := range j.Residual {
		sb.WriteString(" residual:" + r.String())
	}
	sb.WriteString("\n")
	pad(sb, indent+1)
	sb.WriteString("build:\n")
	j.Build.describe(sb, indent+2)
	pad(sb, indent+1)
	sb.WriteString("probe:\n")
	j.Probe.describe(sb, indent+2)
}

// Group aggregates its input by the key expressions (empty keys = one
// global group).
type Group struct {
	Input Node
	Keys  []sema.Expr
	Aggs  []sema.Aggregate
	// Having holds post-aggregation filter conjuncts (post-agg domain),
	// applied to each group before it is emitted.
	Having []sema.Expr
	est    float64
}

// Rows implements Node.
func (g *Group) Rows() float64 { return sanitizeRows(g.est) }

// Tables implements Node.
func (g *Group) Tables() map[int]bool { return map[int]bool{} }

func (g *Group) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	sb.WriteString("GroupBy")
	for _, k := range g.Keys {
		sb.WriteString(" " + k.String())
	}
	sb.WriteString(" aggs:")
	for _, a := range g.Aggs {
		sb.WriteString(" " + a.String())
	}
	for _, h := range g.Having {
		sb.WriteString(" having:" + h.String())
	}
	sb.WriteString("\n")
	g.Input.describe(sb, indent+1)
}

// Sort orders its input (a full sort via ad-hoc generated quicksort, §5).
type Sort struct {
	Input Node
	Keys  []sema.OrderKey
}

// Rows implements Node.
func (s *Sort) Rows() float64 { return sanitizeRows(s.Input.Rows()) }

// Tables implements Node.
func (s *Sort) Tables() map[int]bool { return s.Input.Tables() }

func (s *Sort) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	sb.WriteString("Sort")
	for _, k := range s.Keys {
		dir := " asc"
		if k.Desc {
			dir = " desc"
		}
		sb.WriteString(" " + k.Expr.String() + dir)
	}
	sb.WriteString("\n")
	s.Input.describe(sb, indent+1)
}

// Limit caps the number of output rows.
type Limit struct {
	Input Node
	N     int64
}

// Rows implements Node.
func (l *Limit) Rows() float64 {
	r := l.Input.Rows()
	if float64(l.N) < r {
		r = float64(l.N)
	}
	return sanitizeRows(r)
}

// Tables implements Node.
func (l *Limit) Tables() map[int]bool { return l.Input.Tables() }

func (l *Limit) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	fmt.Fprintf(sb, "Limit %d\n", l.N)
	l.Input.describe(sb, indent+1)
}

// Project computes the final output columns.
type Project struct {
	Input Node
	Cols  []sema.OutputCol
}

// Rows implements Node.
func (p *Project) Rows() float64 { return sanitizeRows(p.Input.Rows()) }

// Tables implements Node.
func (p *Project) Tables() map[int]bool { return p.Input.Tables() }

func (p *Project) describe(sb *strings.Builder, indent int) {
	pad(sb, indent)
	sb.WriteString("Project")
	for _, c := range p.Cols {
		sb.WriteString(" " + c.Name)
	}
	sb.WriteString("\n")
	p.Input.describe(sb, indent+1)
}

func pad(sb *strings.Builder, n int) { sb.WriteString(strings.Repeat("  ", n)) }

// Describe renders the plan tree as text (used by EXPLAIN).
func Describe(n Node) string {
	var sb strings.Builder
	n.describe(&sb, 0)
	return sb.String()
}
