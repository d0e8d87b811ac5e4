package wasmdb

import (
	"context"
	"fmt"
	"math"

	"wasmdb/internal/types"
)

// Stmt is a prepared statement: a SELECT with ? placeholders, validated once
// and executable many times with different arguments. Execution goes through
// the same plan cache as ad-hoc queries — the first Query compiles the
// statement's module, later ones (and ad-hoc queries of the same shape) hit
// the cached compilation and only rewrite the parameter region of linear
// memory. A Stmt is safe for concurrent use.
type Stmt struct {
	db         *DB
	src        string
	numParams  int
	paramTypes []types.Type
}

// Prepare parses and binds a SELECT statement, inferring a type for each ?
// placeholder from the expression it appears in (a placeholder compared
// against a column adopts the column's type; LIMIT ? is a BIGINT). A text
// the statement cache already holds is not parsed again: its placeholders
// are read from the stored entry.
func (db *DB) Prepare(src string) (*Stmt, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if n, ts, ok := db.stmts.params(src, db.cat); ok {
		return &Stmt{db: db, src: src, numParams: n, paramTypes: ts}, nil
	}
	q, err := db.analyze(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, src: src, numParams: q.NumParams, paramTypes: q.ParamTypes}, nil
}

// NumParams returns the number of ? placeholders in the statement.
func (s *Stmt) NumParams() int { return s.numParams }

// Query executes the statement with the given placeholder arguments.
// Accepted Go types per placeholder type: int/int32/int64 for the integer
// and DECIMAL types, float64 for DOUBLE and DECIMAL, string for CHAR, DATE
// ("YYYY-MM-DD") and DECIMAL, bool for BOOLEAN.
func (s *Stmt) Query(args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), args)
}

// QueryContext executes the statement under ctx with the given arguments;
// opts apply as in DB.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, args []any, opts ...Option) (*Result, error) {
	if len(args) != s.numParams {
		return nil, fmt.Errorf("wasmdb: statement expects %d argument(s), got %d", s.numParams, len(args))
	}
	vals := make([]types.Value, len(args))
	for i, a := range args {
		v, err := bindArg(a, s.paramTypes[i])
		if err != nil {
			return nil, fmt.Errorf("wasmdb: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return s.db.queryContext(ctx, s.src, vals, opts...)
}

// bindArg converts a Go value into a typed engine value for one placeholder.
func bindArg(a any, t types.Type) (types.Value, error) {
	switch t.Kind {
	case types.Int32:
		if n, ok := argInt(a); ok {
			if n < math.MinInt32 || n > math.MaxInt32 {
				return types.Value{}, fmt.Errorf("value %d overflows INTEGER", n)
			}
			return types.NewInt32(int32(n)), nil
		}
	case types.Int64:
		if n, ok := argInt(a); ok {
			return types.NewInt64(n), nil
		}
	case types.Float64:
		switch v := a.(type) {
		case float64:
			return types.NewFloat64(v), nil
		case float32:
			return types.NewFloat64(float64(v)), nil
		}
		if n, ok := argInt(a); ok {
			return types.NewFloat64(float64(n)), nil
		}
	case types.Decimal:
		switch v := a.(type) {
		case string:
			raw, err := types.ParseDecimal(v, t.Scale)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDecimal(raw, t.Prec, t.Scale), nil
		case float64:
			return types.NewDecimal(int64(math.Round(v*float64(types.Pow10(t.Scale)))), t.Prec, t.Scale), nil
		}
		if n, ok := argInt(a); ok {
			return types.NewDecimal(n*types.Pow10(t.Scale), t.Prec, t.Scale), nil
		}
	case types.Char:
		if s, ok := a.(string); ok {
			if len(s) > t.Length {
				return types.Value{}, fmt.Errorf("string %q longer than CHAR(%d)", s, t.Length)
			}
			return types.NewChar(s, t.Length), nil
		}
	case types.Date:
		if s, ok := a.(string); ok {
			days, err := types.ParseDate(s)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDate(days), nil
		}
	case types.Bool:
		if b, ok := a.(bool); ok {
			return types.NewBool(b), nil
		}
	}
	return types.Value{}, fmt.Errorf("cannot bind %T to %s", a, t)
}

func argInt(a any) (int64, bool) {
	switch v := a.(type) {
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	case int64:
		return v, true
	}
	return 0, false
}

// PlanCacheStats is a point-in-time snapshot of the DB's compiled-query
// cache: lookup outcomes since Open, and current occupancy.
type PlanCacheStats struct {
	// Hits counts lookups that reused a cached module (including queries that
	// attached to another query's in-flight compilation).
	Hits int64
	// Misses counts lookups that compiled.
	Misses int64
	// Evictions counts entries dropped by the LRU budget, Invalidations
	// entries dropped by DDL.
	Evictions     int64
	Invalidations int64
	// Entries and CodeBytes describe current occupancy.
	Entries   int
	CodeBytes int64
}

// PlanCacheStats snapshots the plan cache's effectiveness counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	s := db.pcache.Stats()
	return PlanCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Entries:       s.Entries,
		CodeBytes:     s.CodeBytes,
	}
}

// SetPlanCacheLimits bounds the plan cache to at most maxEntries compiled
// queries and maxBytes of generated module code (values <= 0 select the
// defaults: 128 entries, 64 MiB). Tightening evicts immediately, least
// recently used first.
func (db *DB) SetPlanCacheLimits(maxEntries int, maxBytes int64) {
	db.pcache.SetLimits(maxEntries, maxBytes)
	db.stmts.trim(stmtsPerPlan * db.pcache.MaxEntries())
}

// FlushPlanCache drops every cached compilation, and every statement the
// front end planned, and returns how many compilations were dropped.
func (db *DB) FlushPlanCache() int { return db.flushCaches() }
