package wasmdb

import (
	"fmt"
	"sync"

	"wasmdb/internal/autopilot"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
)

// The statement cache remembers, per SQL text and backend, what one pass of
// the front end produced — lex, parse, sema, parameterize, plan and the
// plan-cache fingerprint — so a repeated text goes straight to the
// autopilot decision and the plan-cache lookup (DESIGN §10). It serves only
// the parameterized path (a Wasm backend with the plan cache on): the
// literal path of WithPlanCache(false), volcano and vectorized is the
// differential oracle and runs the front end every time.

// stmtKey is a statement cache key. The backend is part of it because the
// fingerprint covers the backend's compile style and tier, and the
// autopilot's profile is computed for BackendAuto only.
type stmtKey struct {
	src     string
	backend Backend
}

// stmtEntry is the product of one front-end pass over a statement. A stored
// entry is never written again: concurrent executions share its query and
// plan, which codegen and execution only read.
type stmtEntry struct {
	// q is the analyzed query, parameterized when the plan cache is on; its
	// NumParams and ParamTypes are the statement's placeholders.
	q *sema.Query
	p plan.Node
	// fp is the plan-cache key, and under BackendAuto the feedback key.
	fp string
	// lits are the literals Parameterize hoisted, in parameter order after
	// the explicit placeholders.
	lits []types.Value
	// prof is the autopilot's cost profile of p (BackendAuto only).
	prof autopilot.Profile
	// version and rows are the catalog state the statement was planned
	// against: the schema version and each of q.Tables' row counts, which
	// the join order and the autopilot profile read.
	version uint64
	rows    []int
}

// current reports whether planning the statement against cat now would give
// the same entry: the schema is the one it was analyzed against and no
// table it reads has grown (INSERT appends rows without a new version).
func (e *stmtEntry) current(cat *catalog.Catalog) bool {
	if e.version != cat.Version() {
		return false
	}
	for i, ref := range e.q.Tables {
		if ref.Table.Rows() != e.rows[i] {
			return false
		}
	}
	return true
}

// stmtsPerPlan bounds the statement cache off the plan cache's entry limit,
// as the autopilot's feedback table is: an entry is a query and a plan, far
// smaller than a compiled module, and several texts (differing literals)
// share one module.
const stmtsPerPlan = 4

// stmtCache is a bounded map of statement entries, oldest dropped first.
// Safe for concurrent use.
type stmtCache struct {
	mu    sync.Mutex
	m     map[stmtKey]*stmtEntry
	order []stmtKey // insertion order, oldest first
}

func (c *stmtCache) get(k stmtKey) *stmtEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// put stores e under k, replacing a stale entry in place, and drops the
// oldest entries beyond limit.
func (c *stmtCache) put(k stmtKey, e *stmtEntry, limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[stmtKey]*stmtEntry{}
	}
	if _, ok := c.m[k]; !ok {
		c.order = append(c.order, k)
	}
	c.m[k] = e
	c.trimLocked(limit)
}

// trim drops the oldest entries beyond limit.
func (c *stmtCache) trim(limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trimLocked(limit)
}

func (c *stmtCache) trimLocked(limit int) {
	for len(c.order) > limit {
		delete(c.m, c.order[0])
		c.order[0] = stmtKey{}
		c.order = c.order[1:]
	}
}

// flush forgets every statement: after DDL, a data load or a plan-cache
// flush the next execution of any text runs the front end again.
func (c *stmtCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.order = nil
}

// params returns the placeholder count and types of src from a current
// entry stored for any backend, or false when there is none.
func (c *stmtCache) params(src string, cat *catalog.Catalog) (int, []types.Type, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for b := range backendNames {
		if e := c.m[stmtKey{src, Backend(b)}]; e != nil && e.current(cat) {
			return e.q.NumParams, e.q.ParamTypes, true
		}
	}
	return 0, nil, false
}

// flushCaches forgets every compiled module and every planned statement,
// together: a statement kept past its module would be recompiled from its
// stored plan, and a DDL or data load changes what planning would produce.
// It returns how many modules were dropped.
func (db *DB) flushCaches() int {
	db.stmts.flush()
	return db.pcache.Flush()
}

// statement is the one way a query's front-end products are made: lex,
// parse, sema, placeholder checks, parameterize (with useCache) or literal
// substitution (without), plan, the fingerprint (when the plan cache or the
// autopilot keys on it) and the autopilot profile (BackendAuto). With
// useCache a current entry stored for (src, backend) is returned instead,
// reused true, after the same placeholder checks a fresh pass makes; a
// fresh pass stores its entry unless an explicit LIMIT ? made the plan
// depend on the bound value. Only a fresh pass records the parse, sema and
// plan spans. Caller holds db.mu.
func (db *DB) statement(src string, args []types.Value, backend Backend, useCache bool, tr *obs.Trace) (st *stmtEntry, reused bool, err error) {
	key := stmtKey{src, backend}
	if useCache {
		if st := db.stmts.get(key); st != nil && st.current(db.cat) {
			if err := checkArgs(st.q, args); err != nil {
				return nil, false, err
			}
			return st, true, nil
		}
	}

	sp := tr.Begin(obs.SpanParse)
	stmt, err := sql.ParseSelect(src)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	sp = tr.Begin(obs.SpanSema)
	q, err := sema.Analyze(stmt, db.cat)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	if err := checkArgs(q, args); err != nil {
		return nil, false, err
	}
	// An explicit LIMIT ? resolves on the host before planning — the plan's
	// limit node depends on its value.
	if q.LimitParam >= 0 {
		q.Limit = args[q.LimitParam].I
	}

	// With the plan cache on, hoist value-carrying literals into the
	// parameter vector so same-shaped queries share one compiled module.
	// Otherwise fold the placeholder arguments back into constants — the
	// baselines and cache-off runs execute the literal query, which keeps
	// them usable as differential oracles for the parameterized path.
	st = &stmtEntry{q: q}
	if useCache {
		st.lits = sema.Parameterize(q)
	} else if q.NumParams > 0 {
		sema.SubstituteParams(q, args)
	}

	sp = tr.Begin(obs.SpanPlan)
	st.p, err = plan.Build(q)
	sp.End()
	if err != nil {
		return nil, false, err
	}
	st.version = db.cat.Version()
	if useCache || backend == BackendAuto {
		style, cfg := backendConfig(backend)
		st.fp = core.Fingerprint(q, st.p, st.version, style, cfg.Tier, cfg.OptRounds)
	}
	if backend == BackendAuto {
		st.prof = autopilot.ProfilePlan(st.p)
	}
	if useCache && q.LimitParam < 0 {
		st.rows = make([]int, len(q.Tables))
		for i, ref := range q.Tables {
			st.rows[i] = ref.Table.Rows()
		}
		db.stmts.put(key, st, stmtsPerPlan*db.pcache.MaxEntries())
	}
	return st, false, nil
}

// checkArgs checks a query's placeholders against the bound arguments: an
// ad-hoc query (args nil) must contain none, prepared execution must supply
// exactly one value per placeholder, and a LIMIT ? value must not be
// negative.
func checkArgs(q *sema.Query, args []types.Value) error {
	if args == nil {
		if q.NumParams > 0 {
			return fmt.Errorf("wasmdb: query has %d placeholder(s); use Prepare", q.NumParams)
		}
		return nil
	}
	if len(args) != q.NumParams {
		return fmt.Errorf("wasmdb: statement expects %d argument(s), got %d", q.NumParams, len(args))
	}
	if q.LimitParam >= 0 {
		if n := args[q.LimitParam].I; n < 0 {
			return fmt.Errorf("wasmdb: negative LIMIT argument %d", n)
		}
	}
	return nil
}
