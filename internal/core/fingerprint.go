package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
)

// fpSalt versions the fingerprint format itself: any change to the
// serialization below, or to codegen that is not otherwise captured, must
// bump it so stale cache keys cannot alias new modules.
const fpSalt = "wasmdb-plancache-v4"

// Fingerprint computes the plan-cache key of a parameterized query: a
// sha256 over everything that determines the bytes of the compiled module —
// plan structure, expression trees with parameter slots (not values), bound
// types, compile style, engine tier configuration, the catalog schema
// version, and each referenced column's mapped page count (column base
// addresses are baked into generated loads). Parameter *values* are
// deliberately excluded: two queries that differ only in hoisted literals
// hash identically and share one cache entry. No cardinality estimate is
// read, because codegen consumes none (every table is sized from what
// execution produces): row-count drift that leaves a column's page count
// alone never changes the key.
func Fingerprint(q *sema.Query, root plan.Node, schemaVersion uint64, style Style, tier engine.Tier, optRounds int) string {
	w := &fpWriter{h: sha256.New()}
	w.str(fpSalt)
	w.bool(style.LibraryHT)
	w.bool(style.LibrarySort)
	w.bool(style.PredicatedSelection)
	w.u64(uint64(tier))
	w.u64(uint64(optRounds))
	w.u64(schemaVersion)

	// Tables: schema and the page count of every column (all columns: the
	// referenced set is implied by the expressions, and base addresses of
	// later columns depend on the sizes of earlier ones).
	w.u64(uint64(len(q.Tables)))
	for _, tr := range q.Tables {
		w.str(tr.Table.Name)
		w.str(tr.Alias)
		w.u64(uint64(len(tr.Table.Columns)))
		for _, col := range tr.Table.Columns {
			w.str(col.Name)
			w.typ(col.Type)
			w.u64(uint64(col.MappedBytes()) / pageSize)
		}
	}

	w.node(q, root)
	return hex.EncodeToString(w.h.Sum(nil))
}

type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *fpWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) typ(t types.Type) {
	w.u64(uint64(t.Kind))
	w.i64(int64(t.Prec))
	w.i64(int64(t.Scale))
	w.i64(int64(t.Length))
}

func (w *fpWriter) node(q *sema.Query, n plan.Node) {
	switch x := n.(type) {
	case *plan.Scan:
		w.str("scan")
		w.i64(int64(x.TableIdx))
		w.u64(uint64(len(x.Filter)))
		for _, f := range x.Filter {
			w.expr(f)
		}
	case *plan.HashJoin:
		w.str("join")
		w.u64(uint64(len(x.BuildKeys)))
		for _, k := range x.BuildKeys {
			w.expr(k)
		}
		w.u64(uint64(len(x.ProbeKeys)))
		for _, k := range x.ProbeKeys {
			w.expr(k)
		}
		w.u64(uint64(len(x.Residual)))
		for _, r := range x.Residual {
			w.expr(r)
		}
		w.node(q, x.Build)
		w.node(q, x.Probe)
	case *plan.Group:
		w.str("group")
		w.u64(uint64(len(x.Keys)))
		for _, k := range x.Keys {
			w.expr(k)
		}
		w.u64(uint64(len(x.Aggs)))
		for _, a := range x.Aggs {
			w.u64(uint64(a.Func))
			w.typ(a.T)
			if a.Arg != nil {
				w.expr(a.Arg)
			} else {
				w.str("*")
			}
		}
		w.u64(uint64(len(x.Having)))
		for _, h := range x.Having {
			w.expr(h)
		}
		w.node(q, x.Input)
	case *plan.Sort:
		w.str("sort")
		w.u64(uint64(len(x.Keys)))
		for _, k := range x.Keys {
			w.bool(k.Desc)
			w.expr(k.Expr)
		}
		w.node(q, x.Input)
	case *plan.Limit:
		w.str("limit")
		if q.LimitSlot >= 0 {
			// Parameterized: the value lives in the parameter region and the
			// generated check reads it there — exclude it from the key.
			w.i64(int64(q.LimitSlot))
		} else {
			w.str("=")
			w.i64(x.N)
		}
		w.node(q, x.Input)
	case *plan.Project:
		w.str("project")
		w.u64(uint64(len(x.Cols)))
		for _, oc := range x.Cols {
			w.str(oc.Name)
			w.expr(oc.Expr)
		}
		w.node(q, x.Input)
	default:
		w.str("?node")
	}
}

func (w *fpWriter) expr(e sema.Expr) {
	switch x := e.(type) {
	case *sema.ColRef:
		w.str("c")
		w.i64(int64(x.Table))
		w.i64(int64(x.Col))
		w.typ(x.T)
	case *sema.Const:
		// A constant that survived Parameterize (all-constant predicate,
		// projected literal, …) is baked into the module: its value is part
		// of the key.
		w.str("k")
		w.typ(x.V.Type)
		w.i64(x.V.I)
		w.u64(math.Float64bits(x.V.F))
		w.str(x.V.S)
	case *sema.Param:
		w.str("p")
		w.i64(int64(x.Idx))
		w.typ(x.T)
	case *sema.Binary:
		w.str("b")
		w.u64(uint64(x.Op))
		w.typ(x.T)
		w.expr(x.L)
		w.expr(x.R)
	case *sema.Not:
		w.str("!")
		w.expr(x.E)
	case *sema.Cast:
		w.str("cast")
		w.typ(x.To)
		w.expr(x.E)
	case *sema.Like:
		w.str("like")
		w.u64(uint64(x.Kind))
		w.bool(x.Not)
		if x.PIdx >= 0 {
			// Parameterized pattern: the slot and the byte length shape the
			// generated matcher; the bytes themselves do not.
			w.i64(int64(x.PIdx))
			n := len(x.Needle)
			if x.Kind == sema.LikeComplex {
				n = len(x.Pattern)
			}
			w.i64(int64(n))
		} else {
			w.i64(-1)
			w.str(x.Pattern)
			w.str(x.Needle)
		}
		w.expr(x.E)
	case *sema.Case:
		w.str("case")
		w.typ(x.T)
		w.u64(uint64(len(x.Whens)))
		for _, wh := range x.Whens {
			w.expr(wh.Cond)
			w.expr(wh.Then)
		}
		w.expr(x.Else)
	case *sema.ExtractYear:
		w.str("year")
		w.expr(x.E)
	case *sema.AggRef:
		w.str("a")
		w.i64(int64(x.Idx))
		w.typ(x.T)
	case *sema.KeyRef:
		w.str("g")
		w.i64(int64(x.Idx))
		w.typ(x.T)
	default:
		w.str("?expr")
	}
}
