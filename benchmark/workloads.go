package main

import (
	"fmt"
	"math/rand"
	"time"

	"wasmdb"
)

// workloadDef names one workload. The names are permanent: BENCHMARK.json,
// the README and later issues cite them.
type workloadDef struct {
	name string
	// sf is the TPC-H scale factor of the catalog.
	sf float64
	// queries generates the round's fixed query list from the seed (nil for
	// serving-warm, whose requests are built in serving.go).
	queries func(*rand.Rand) []string
	// backend and workers (0: not set) are what every query of the workload
	// runs with.
	backend wasmdb.Backend
	workers int
	// flush drops the plan cache (untimed) before each round, so every query
	// of the round translates and compiles.
	flush bool
}

// The scale factors of adhoc-large and parallel-2w are sized so a round
// takes ≈ 0.1 s and a 15 s run holds more than 100 of them: p90 then has at
// least ten samples beyond it.
var workloads = []workloadDef{
	{name: "adhoc-large", sf: 0.01, queries: tpchQueries, backend: wasmdb.BackendWasm, flush: true},
	{name: "adhoc-small", sf: 0.0002, queries: smallShapes, backend: wasmdb.BackendWasm, flush: true},
	{name: "parallel-2w", sf: 0.01, queries: tpchQueries, backend: wasmdb.BackendWasm, workers: 2},
	{name: "serving-warm", sf: 0.002, backend: wasmdb.BackendWasm},
	{name: "auto-mixed", sf: 0.02, queries: autoShapes, backend: wasmdb.BackendAuto},
}

// options renders the workload's configuration as public-API options.
func (d workloadDef) options() []wasmdb.Option {
	opts := []wasmdb.Option{wasmdb.WithBackend(d.backend)}
	if d.workers > 0 {
		opts = append(opts, wasmdb.WithParallelism(d.workers))
	}
	return opts
}

// instance is a set-up workload, ready to be measured.
type instance interface {
	// measure runs timed rounds until lim says stop.
	measure(lim limit) measurement
	// perRound is the number of queries one round issues.
	perRound() int
	close()
}

// setup generates the workload's data and inputs from the seed, computes the
// reference results, and warms up: cfg.warmups untimed rounds fill the
// caches, and on the warm workloads the last one waits for background
// tier-up to finish. Its duration is the setup_s metric.
func setup(def workloadDef, cfg runConfig) (instance, error) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(def.sf, cfg.seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if def.queries == nil {
		return setupServing(db, rng, cfg.warmups)
	}
	w := &sqlWorkload{def: def, db: db, opts: def.options()}
	for _, src := range def.queries(rng) {
		want, err := reference(db, src)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", src, err)
		}
		w.queries = append(w.queries, sqlQuery{src, want})
	}
	for i := 0; i < cfg.warmups; i++ {
		opts := w.opts
		if i == cfg.warmups-1 && !def.flush {
			opts = append(def.options(), wasmdb.WithWaitOptimized())
		}
		if _, failed := w.round(opts); failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d queries failed (first: %s)", failed, len(w.queries), w.firstFailure)
		}
	}
	return w, nil
}

// reference computes a query's expected output with BackendVolcano, an
// interpreter that shares no code with the compiler under test.
func reference(db *wasmdb.DB, src string) (string, error) {
	res, err := db.Query(src, wasmdb.WithBackend(wasmdb.BackendVolcano))
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

type sqlQuery struct {
	src  string
	want string // Result.Format() of the reference
}

// sqlWorkload issues a fixed query list serially through DB.Query.
type sqlWorkload struct {
	def          workloadDef
	db           *wasmdb.DB
	opts         []wasmdb.Option
	queries      []sqlQuery
	firstFailure string
}

func (w *sqlWorkload) perRound() int { return len(w.queries) }
func (w *sqlWorkload) close()        {}

// round issues every query once and returns the summed latency from SQL
// text to decoded rows; the plan-cache flush and the comparison against the
// reference are outside the clock.
func (w *sqlWorkload) round(opts []wasmdb.Option) (latency time.Duration, failed int) {
	if w.def.flush {
		w.db.FlushPlanCache()
	}
	for _, q := range w.queries {
		t := time.Now()
		res, err := w.db.Query(q.src, opts...)
		latency += time.Since(t)
		switch {
		case err != nil:
			failed++
			w.fail(fmt.Sprintf("%v: %s", err, q.src))
		case res.Format() != q.want:
			failed++
			w.fail("result differs from reference: " + q.src)
		}
	}
	return latency, failed
}

func (w *sqlWorkload) fail(msg string) {
	if w.firstFailure == "" {
		w.firstFailure = msg
	}
}

func (w *sqlWorkload) measure(lim limit) measurement {
	var m measurement
	for !lim.done(len(m.samples)) {
		d, failed := w.round(w.opts)
		m.samples = append(m.samples, d)
		m.timed += d
		m.attempted += len(w.queries)
		m.failed += failed
	}
	m.firstFailure = w.firstFailure
	return m
}
