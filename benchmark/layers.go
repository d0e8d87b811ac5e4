package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"wasmdb"
	"wasmdb/internal/autopilot"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/plancache"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/types"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/volcano"
	"wasmdb/internal/wasm"
)

// The traced pass. It drives the query pipeline by hand, layer by layer, the
// way DB.runQuery does, with a span around every call; counts come from the
// values those calls return. Nothing inside the engine is instrumented, so
// refactors of its internals leave this file compiling as long as the
// packages' exported entry points stay.

// perLayer is the program's side of BENCHMARK.json's per_layer list. Every
// traced run prints every one of them; a metric that does not apply to the
// workload (server.* outside serving-warm, say) reads 0.
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"sema.analyze_us", "us"},
	{"plan.build_us", "us"},
	{"frontend.source_bytes_per_us", "B/us"},
	{"core.codegen_us", "us"},
	{"core.module_bytes", "B"},
	{"wasm.encode_us", "us"},
	{"wasm.decode_us", "us"},
	{"wasm.validate_us", "us"},
	{"engine.liftoff_compile_bytes_per_us", "B/us"},
	{"engine.turbofan_compile_bytes_per_us", "B/us"},
	{"engine.liftoff_run_ns_per_row", "ns/row"},
	{"engine.turbofan_run_ns_per_row", "ns/row"},
	{"core.morsels_liftoff", "count"},
	{"core.morsels_turbofan", "count"},
	{"core.rewire_us", "us"},
	{"core.init_us", "us"},
	{"core.parallel_efficiency", "ratio"},
	{"core.groups_merged", "count"},
	{"core.join_partitions_merged", "count"},
	{"plancache.hit_us", "us"},
	{"plancache.miss_us", "us"},
	{"plancache.hits", "count"},
	{"plancache.misses", "count"},
	{"plancache.evictions", "count"},
	{"autopilot.decide_us", "us"},
	{"autopilot.choice.volcano", "count"},
	{"autopilot.choice.vectorized", "count"},
	{"autopilot.choice.liftoff", "count"},
	{"autopilot.choice.adaptive", "count"},
	{"autopilot.regret", "ratio"},
	{"volcano.run_us", "us"},
	{"vectorized.run_us", "us"},
	{"server.overhead_us", "us"},
	{"server.rejected", "count"},
	{"trace.compile_share", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// compileSide lists the spans whose self time is translation and
// compilation rather than execution.
var compileSide = map[string]bool{
	"sql.parse": true, "sema.analyze": true, "plan.build": true,
	"core.fingerprint": true, "plancache.hit": true, "plancache.miss": true,
	"core.codegen": true, "engine.compile": true,
	"wasm.decode": true, "wasm.validate": true, "engine.liftoff": true,
}

// tracedRounds is the length of the traced pass unless -rounds says
// otherwise.
const tracedRounds = 10

type tracedQuery struct {
	src  string
	want string // canonical rows of volcano.Run on the literal query
}

// tracedEnv is the hand-driven counterpart of a workload: the same catalog
// and query list, its own plan cache, and the recorder.
type tracedEnv struct {
	def     workloadDef
	cfg     runConfig
	cat     *catalog.Catalog
	pc      *plancache.Cache
	rec     *recorder
	queries []tracedQuery
	// probes are the queries with distinct plan shapes (for serving-warm,
	// one literal per statement).
	probes []tracedQuery
	// counts accumulates what the layer calls returned.
	counts map[string]float64
	// waitOptimized makes every query wait for its module's background
	// tier-up (last warm-up round of the warm workloads).
	waitOptimized bool
	firstFailure  string
}

func (e *tracedEnv) auto() bool { return e.def.backend == wasmdb.BackendAuto }

func newTracedEnv(def workloadDef, cfg runConfig) (*tracedEnv, error) {
	cat, err := tpch.Generate(def.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &tracedEnv{def: def, cfg: cfg, cat: cat, pc: plancache.New(0, 0), rec: newRecorder(), counts: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	var srcs, probes []string
	if def.queries != nil {
		srcs = def.queries(rng)
		probes = srcs
	} else {
		for _, sh := range servingShapes(rng) {
			probes = append(probes, sh.literal(0))
			for i := range sh.args {
				srcs = append(srcs, sh.literal(i))
			}
		}
	}
	add := func(list *[]tracedQuery, src string) error {
		q, p, err := e.bind(src)
		if err != nil {
			return fmt.Errorf("%w: %s", err, src)
		}
		_, rows, err := volcano.Run(q, p)
		if err != nil {
			return fmt.Errorf("reference: %w: %s", err, src)
		}
		*list = append(*list, tracedQuery{src, canonical(rows)})
		return nil
	}
	for _, src := range srcs {
		if err := add(&e.queries, src); err != nil {
			return nil, err
		}
	}
	for _, src := range probes {
		if err := add(&e.probes, src); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// bind parses, analyzes and plans a literal query outside any span.
func (e *tracedEnv) bind(src string) (*sema.Query, plan.Node, error) {
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return nil, nil, err
	}
	q, err := sema.Analyze(stmt, e.cat)
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Build(q)
	return q, p, err
}

func canonical(rows [][]types.Value) string {
	var sb strings.Builder
	for _, row := range rows {
		for c, v := range row {
			if c > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// round drives every query of the list once and returns the summed duration
// of their root spans.
func (e *tracedEnv) round() (latency time.Duration, failed int) {
	if e.def.flush {
		e.pc.Flush()
	}
	for _, tq := range e.queries {
		first := len(e.rec.spans)
		rows, err := e.query(tq.src)
		root := e.rec.spans[first]
		latency += root.End - root.Start
		if err != nil || canonical(rows) != tq.want {
			failed++
			if e.firstFailure == "" {
				e.firstFailure = fmt.Sprintf("traced: %v: %s", err, tq.src)
			}
		}
	}
	return latency, failed
}

// query is DB.runQuery by hand: parse → analyze/parameterize → plan →
// (autopilot) → plan cache → codegen → engine compile → execute.
func (e *tracedEnv) query(src string) (rows [][]types.Value, err error) {
	r := e.rec
	root := r.begin("query")
	defer r.end(root)

	s := r.begin("sql.parse")
	stmt, err := sql.ParseSelect(src)
	r.end(s)
	if err != nil {
		return nil, err
	}
	e.counts["source_bytes"] += float64(len(src))
	s = r.begin("sema.analyze")
	q, err := sema.Analyze(stmt, e.cat)
	var params []types.Value
	if err == nil {
		params = sema.Parameterize(q)
	}
	r.end(s)
	if err != nil {
		return nil, err
	}
	s = r.begin("plan.build")
	p, err := plan.Build(q)
	r.end(s)
	if err != nil {
		return nil, err
	}

	workers := e.def.workers
	var dec autopilot.Decision
	autoKey := ""
	if e.auto() {
		s = r.begin("autopilot.decide")
		autoKey = core.Fingerprint(q, p, e.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
		var fbp *plancache.Feedback
		if fb, ok := e.pc.Feedback(autoKey); ok {
			fbp = &fb
		}
		knobs := autopilot.DefaultKnobs()
		knobs.MaxWorkers = min(knobs.MaxWorkers, runtime.GOMAXPROCS(0))
		dec = autopilot.Decide(autopilot.ProfilePlan(p), fbp, knobs)
		r.end(s)
		e.counts["autopilot.choice."+dec.Choice.String()]++
		workers = dec.Workers
	}

	fb := plancache.Feedback{TierUpMorsel: -1, Workers: 1, Choice: dec.Choice.String()}
	if autoKey != "" && (dec.Choice == autopilot.ChoiceVolcano || dec.Choice == autopilot.ChoiceVectorized) {
		rows, err = e.interpret(stmt, dec.Choice, &fb)
	} else {
		autoLiftoff := autoKey != "" && dec.Choice == autopilot.ChoiceLiftoff
		rows, err = e.compiled(q, p, params, workers, autoLiftoff, &fb)
	}
	if err != nil {
		return nil, err
	}
	if autoKey != "" {
		fb.Rows = int64(len(rows))
		e.pc.RecordFeedback(autoKey, fb)
	}
	return rows, nil
}

// interpret is the autopilot's volcano/vectorized route. The interpreters
// execute the literal query, so it is bound again, as runQuery does.
func (e *tracedEnv) interpret(stmt *sql.SelectStmt, choice autopilot.Choice, fb *plancache.Feedback) (rows [][]types.Value, err error) {
	r := e.rec
	s := r.begin("sema.analyze")
	q, err := sema.Analyze(stmt, e.cat)
	r.end(s)
	if err != nil {
		return nil, err
	}
	s = r.begin("plan.build")
	p, err := plan.Build(q)
	r.end(s)
	if err != nil {
		return nil, err
	}
	if choice == autopilot.ChoiceVolcano {
		s = r.begin("volcano.run")
		_, rows, err = volcano.Run(q, p)
	} else {
		s = r.begin("vectorized.run")
		_, rows, _, err = vectorized.Run(q, p)
	}
	r.end(s)
	e.counts[r.spans[s].Name+".queries"]++
	fb.ExecNs = int64(r.spans[s].End - r.spans[s].Start)
	return rows, err
}

// compiled is the Wasm route: plan cache (codegen and engine compile on a
// miss), then core.Execute on the cached module. autoLiftoff vetoes tier-up,
// the autopilot's baseline-only decision.
func (e *tracedEnv) compiled(q *sema.Query, p plan.Node, params []types.Value, workers int, autoLiftoff bool, fb *plancache.Feedback) ([][]types.Value, error) {
	r := e.rec
	cfg := engine.Config{Tier: engine.TierAdaptive}
	if autoLiftoff {
		cfg.TierPolicy = func(int, int) bool { return false }
	}
	eng := engine.New(cfg)
	s := r.begin("plancache.get")
	f := r.begin("core.fingerprint")
	fp := core.Fingerprint(q, p, e.cat.Version(), core.Style{}, cfg.Tier, 0)
	r.end(f)
	ent, hit, err := e.pc.GetOrCompile(fp, func() (*core.CompiledQuery, *engine.Module, error) {
		c := r.begin("core.codegen")
		cq, err := core.CompileStyled(q, p, core.Style{})
		r.end(c)
		if err != nil {
			return nil, nil, err
		}
		m := r.begin("engine.compile")
		mod, err := eng.Compile(cq.Bin)
		r.end(m)
		if err != nil {
			return nil, nil, err
		}
		st := mod.Stats()
		r.derive(m, "wasm.decode", 0, st.Decode)
		r.derive(m, "wasm.validate", st.Decode, st.Validate)
		r.derive(m, "engine.liftoff", st.Decode+st.Validate, st.Liftoff)
		return cq, mod, nil
	})
	r.end(s)
	if err != nil {
		return nil, err
	}
	r.spans[s].Name = "plancache.miss"
	if hit {
		r.spans[s].Name = "plancache.hit"
	}
	e.counts[r.spans[s].Name+".queries"]++
	e.counts["core.module_bytes"] += float64(len(ent.CQ.Bin))
	if !autoLiftoff {
		ent.Mod.EnsureOptimizing()
	}
	if e.waitOptimized {
		_ = ent.Mod.WaitOptimized() // a failed tier-up leaves baseline code serving
	}

	x := r.begin("core.execute")
	out, st, err := core.Execute(ent.CQ, q, eng, core.ExecOptions{
		Parallelism: workers, Precompiled: ent.Mod, Params: params,
	})
	r.end(x)
	if err != nil {
		return nil, err
	}
	r.derive(x, "core.rewire", 0, st.Rewire)
	r.derive(x, "core.init", st.Rewire, st.Init-st.Rewire)
	r.derive(x, "core.run", st.Init, st.Run)
	e.counts["core.morsels_liftoff"] += float64(st.MorselsLiftoff)
	e.counts["core.morsels_turbofan"] += float64(st.MorselsTurbofan)
	e.counts["core.groups_merged"] += float64(st.GroupsMerged)
	e.counts["core.join_partitions_merged"] += float64(st.JoinPartitionsMerged)
	e.counts["workers"] += float64(st.Workers)
	e.counts["rewire_ns"] += float64(st.Rewire)
	e.counts["init_ns"] += float64(st.Init - st.Rewire)
	fb.ExecNs = int64(st.Run)
	fb.Morsels = int64(st.MorselsLiftoff + st.MorselsTurbofan)
	fb.Workers = st.Workers
	fb.SerialFallback = st.SerialFallback
	fb.FallbackIntrinsic = core.FallbackIntrinsic(st.SerialFallback)
	return out.Rows, nil
}

// selfTimes is the traced rounds' self time summed by span name, and the
// summed duration of the root spans it is a share of.
type selfTimes struct {
	byName map[string]time.Duration
	total  time.Duration
}

// tracedRounds is part A of the traced pass: it drops the warm-up's spans
// and counts, drives the traced rounds, checks the span tree, and derives the
// layer metrics that come from spans and returned counts.
func (e *tracedEnv) tracedRounds() (m measurement, v map[string]float64, self selfTimes, err error) {
	e.rec = newRecorder()
	e.counts = map[string]float64{}
	pcBefore := e.pc.Stats()
	want := e.cfg.rounds
	if want == 0 {
		want = tracedRounds
	}
	deadline := time.Now().Add(e.cfg.budget / 3)
	for len(m.samples) < want && (len(m.samples) == 0 || time.Now().Before(deadline)) {
		d, failed := e.round()
		m.samples = append(m.samples, d)
		m.attempted += len(e.queries)
		m.failed += failed
	}
	m.firstFailure = e.firstFailure
	pcAfter := e.pc.Stats()
	if err := e.rec.check(); err != nil {
		return m, nil, self, fmt.Errorf("span tree: %w", err)
	}

	rounds := float64(len(m.samples))
	nq := float64(m.attempted)
	selfByName := map[string]time.Duration{}
	var compile, rootTotal time.Duration
	for i, d := range e.rec.selfTimes() {
		sp := e.rec.spans[i]
		selfByName[sp.Name] += d
		if compileSide[sp.Name] {
			compile += d
		}
		if sp.Parent < 0 {
			rootTotal += sp.End - sp.Start
		}
	}
	perQuery := func(span string) float64 { return us(selfByName[span]) / nq }
	per := func(total time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return us(total) / n
	}
	frontend := selfByName["sql.parse"] + selfByName["sema.analyze"] + selfByName["plan.build"]

	v = map[string]float64{
		"sql.parse_us":                 perQuery("sql.parse"),
		"sema.analyze_us":              perQuery("sema.analyze"),
		"plan.build_us":                perQuery("plan.build"),
		"frontend.source_bytes_per_us": e.counts["source_bytes"] / us(frontend),
		"core.codegen_us":              perQuery("core.codegen"),
		"core.module_bytes":            e.counts["core.module_bytes"] / rounds,
		"core.morsels_liftoff":         e.counts["core.morsels_liftoff"] / rounds,
		"core.morsels_turbofan":        e.counts["core.morsels_turbofan"] / rounds,
		"core.rewire_us":               per(time.Duration(e.counts["rewire_ns"]), e.counts["workers"]),
		"core.init_us":                 per(time.Duration(e.counts["init_ns"]), e.counts["workers"]),
		"core.groups_merged":           e.counts["core.groups_merged"] / rounds,
		"core.join_partitions_merged":  e.counts["core.join_partitions_merged"] / rounds,
		"plancache.hit_us":             per(selfByName["plancache.hit"], e.counts["plancache.hit.queries"]),
		"plancache.miss_us":            per(selfByName["plancache.miss"], e.counts["plancache.miss.queries"]),
		"plancache.hits":               float64(pcAfter.Hits-pcBefore.Hits) / rounds,
		"plancache.misses":             float64(pcAfter.Misses-pcBefore.Misses) / rounds,
		"plancache.evictions":          float64(pcAfter.Evictions-pcBefore.Evictions) / rounds,
		"autopilot.decide_us":          perQuery("autopilot.decide"),
		"volcano.run_us":               per(selfByName["volcano.run"], e.counts["volcano.run.queries"]),
		"vectorized.run_us":            per(selfByName["vectorized.run"], e.counts["vectorized.run.queries"]),
		"trace.compile_share":          float64(compile) / float64(rootTotal),
	}
	for _, c := range []string{"volcano", "vectorized", "liftoff", "adaptive"} {
		v["autopilot.choice."+c] = e.counts["autopilot.choice."+c] / rounds
	}
	return m, v, selfTimes{selfByName, rootTotal}, nil
}

// runTraced is a -trace 1 run: a short untraced pass for the reference p50,
// the traced rounds, the probes, and the trace file.
func runTraced(def workloadDef, cfg runConfig, traceDir string, stderr io.Writer) (runRecord, error) {
	name := def.name
	inst, err := setup(def, cfg)
	if err != nil {
		return runRecord{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	untraced := timed(inst, cfg.limit(cfg.budget/3))

	e, err := newTracedEnv(def, cfg)
	if err != nil {
		return runRecord{}, fmt.Errorf("traced set-up: %w", err)
	}
	for i := 0; i < cfg.warmups; i++ {
		e.waitOptimized = i == cfg.warmups-1 && !def.flush
		if _, failed := e.round(); failed > 0 {
			return runRecord{}, fmt.Errorf("traced warm-up: %s", e.firstFailure)
		}
	}
	e.waitOptimized = false
	fence()

	m, v, self, err := e.tracedRounds()
	if err != nil {
		return runRecord{}, err
	}

	// Part B: probes, outside the traced rounds' clock.
	if err := e.probeTiers(v); err != nil {
		return runRecord{}, fmt.Errorf("tier probe: %w", err)
	}
	untracedP50 := quantile(untraced.samples, 0.50)
	switch w := inst.(type) {
	case *servingWorkload:
		direct, err := w.probeOverhead(v)
		if err != nil {
			return runRecord{}, fmt.Errorf("server probe: %w", err)
		}
		// A traced serving round is the 48 literal requests without HTTP;
		// compare per query against the direct DB-level latency.
		untracedP50 = direct * time.Duration(len(e.queries))
		v["server.rejected"] = float64(untraced.rejected)
	case *sqlWorkload:
		if e.def.workers > 1 {
			if err := e.probeParallel(v); err != nil {
				return runRecord{}, fmt.Errorf("parallel probe: %w", err)
			}
		}
		if e.auto() {
			if err := w.probeRegret(2*cfg.probeReps-1, v); err != nil {
				return runRecord{}, fmt.Errorf("regret probe: %w", err)
			}
		}
	}
	v["trace.overhead_ms"] = ms(quantile(m.samples, 0.50) - untracedP50)

	m.attempted += untraced.attempted
	m.failed += untraced.failed
	if m.firstFailure == "" {
		m.firstFailure = untraced.firstFailure
	}
	rec := newRecord(name, cfg.seed, true, inst, m)
	rec.Queries = len(e.queries)
	rec.Metrics = map[string]metricValue{}
	for _, d := range perLayer {
		rec.Metrics[d.name] = metricValue{v[d.name], d.unit}
	}
	rec.Extra = map[string]metricValue{
		"traced_p50_ms":   {ms(quantile(m.samples, 0.50)), "ms"},
		"untraced_p50_ms": {ms(untracedP50), "ms"},
		"spans":           {float64(len(e.rec.spans)), "count"},
	}
	self.print(stderr, name)
	for span, d := range self.byName {
		rec.Extra["self_share."+span] = metricValue{float64(d) / float64(self.total), "ratio"}
	}
	path := filepath.Join(traceDir, "trace-"+name+".json")
	if err := e.rec.writeChromeTrace(path); err != nil {
		return runRecord{}, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(stderr, "  trace written to %s (%d spans)\n", path, len(e.rec.spans))
	return rec, nil
}

func (s selfTimes) print(w io.Writer, workload string) {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.byName[names[i]] > s.byName[names[j]] })
	fmt.Fprintf(w, "\n-- %s: self time by span over the traced rounds --\n", workload)
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %12.3f ms %6.1f %%\n", n, ms(s.byName[n]), 100*float64(s.byName[n])/float64(s.total))
	}
}

func medianOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		var err error
		if ds[i], err = f(); err != nil {
			return 0, err
		}
	}
	return quantile(ds, 0.50), nil
}

// probeTiers measures, per distinct plan shape, the module codec
// (wasm.Encode/Decode/Validate on the generated binary) and each engine tier
// in isolation: compile speed in bytes/µs and execution in ns per scanned
// row, with the tier forced.
func (e *tracedEnv) probeTiers(v map[string]float64) error {
	var enc, dec, val time.Duration
	var bytes, scanned float64
	compile := map[engine.Tier]time.Duration{}
	run := map[engine.Tier]time.Duration{}
	for _, tq := range e.probes {
		q, p, err := e.bind(tq.src)
		if err != nil {
			return err
		}
		cq, err := core.CompileStyled(q, p, core.Style{})
		if err != nil {
			return err
		}
		bytes += float64(len(cq.Bin))
		for _, tr := range q.Tables {
			scanned += float64(tr.Table.Rows())
		}
		var mod *wasm.Module
		d, err := medianOf(e.cfg.probeReps, func() (time.Duration, error) {
			t := time.Now()
			var err error
			mod, err = wasm.Decode(cq.Bin)
			return time.Since(t), err
		})
		if err != nil {
			return err
		}
		dec += d
		d, err = medianOf(e.cfg.probeReps, func() (time.Duration, error) {
			t := time.Now()
			err := wasm.Validate(mod)
			return time.Since(t), err
		})
		if err != nil {
			return err
		}
		val += d
		d, _ = medianOf(e.cfg.probeReps, func() (time.Duration, error) {
			t := time.Now()
			wasm.Encode(mod)
			return time.Since(t), nil
		})
		enc += d

		for _, tier := range []engine.Tier{engine.TierLiftoff, engine.TierTurbofan} {
			eng := engine.New(engine.Config{Tier: tier})
			var m *engine.Module
			d, err := medianOf(e.cfg.probeReps, func() (time.Duration, error) {
				var err error
				if m, err = eng.Compile(cq.Bin); err != nil {
					return 0, err
				}
				st := m.Stats()
				return st.Liftoff + st.Turbofan, nil
			})
			if err != nil {
				return err
			}
			compile[tier] += d
			d, err = medianOf(e.cfg.probeReps, func() (time.Duration, error) {
				out, st, err := core.Execute(cq, q, eng, core.ExecOptions{Precompiled: m})
				if err != nil {
					return 0, err
				}
				if canonical(out.Rows) != tq.want {
					return 0, fmt.Errorf("%v result differs from reference: %s", tier, tq.src)
				}
				return st.Run, nil
			})
			if err != nil {
				return err
			}
			run[tier] += d
		}
	}
	n := float64(len(e.probes))
	v["wasm.encode_us"] = us(enc) / n
	v["wasm.decode_us"] = us(dec) / n
	v["wasm.validate_us"] = us(val) / n
	v["engine.liftoff_compile_bytes_per_us"] = bytes / us(compile[engine.TierLiftoff])
	v["engine.turbofan_compile_bytes_per_us"] = bytes / us(compile[engine.TierTurbofan])
	v["engine.liftoff_run_ns_per_row"] = float64(run[engine.TierLiftoff]) / scanned
	v["engine.turbofan_run_ns_per_row"] = float64(run[engine.TierTurbofan]) / scanned
	return nil
}

// probeParallel compares each query's pipeline time on one worker with the
// same optimized module on two: efficiency = serial Run ÷ (2 × parallel Run).
func (e *tracedEnv) probeParallel(v map[string]float64) error {
	var serial, parallel time.Duration
	eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
	for _, tq := range e.probes {
		q, p, err := e.bind(tq.src)
		if err != nil {
			return err
		}
		cq, err := core.CompileStyled(q, p, core.Style{})
		if err != nil {
			return err
		}
		mod, err := eng.Compile(cq.Bin)
		if err != nil {
			return err
		}
		for _, workers := range []int{1, 2} {
			d, err := medianOf(e.cfg.probeReps, func() (time.Duration, error) {
				_, st, err := core.Execute(cq, q, eng, core.ExecOptions{Parallelism: workers, Precompiled: mod})
				if err != nil {
					return 0, err
				}
				return st.Run, nil
			})
			if err != nil {
				return err
			}
			if workers == 1 {
				serial += d
			} else {
				parallel += d
			}
		}
	}
	v["core.parallel_efficiency"] = float64(serial) / (2 * float64(parallel))
	return nil
}

// probeRegret runs every shape warm on BackendAuto and on each manual
// backend through the public API: regret is auto's latency over the best
// manual one, as a geometric mean over the shapes.
func (w *sqlWorkload) probeRegret(reps int, v map[string]float64) error {
	manual := [][]wasmdb.Option{
		{wasmdb.WithBackend(wasmdb.BackendVolcano)},
		{wasmdb.WithBackend(wasmdb.BackendVectorized)},
		{wasmdb.WithBackend(wasmdb.BackendWasmLiftoff)},
		{wasmdb.WithBackend(wasmdb.BackendWasm)},
		{wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithParallelism(2)},
	}
	latency := func(src string, opts []wasmdb.Option) (time.Duration, error) {
		if _, err := w.db.Query(src, opts...); err != nil { // warm the backend's cache entry
			return 0, err
		}
		return medianOf(reps, func() (time.Duration, error) {
			t := time.Now()
			_, err := w.db.Query(src, opts...)
			return time.Since(t), err
		})
	}
	logSum := 0.0
	for _, q := range w.queries {
		auto, err := latency(q.src, w.opts)
		if err != nil {
			return err
		}
		best := time.Duration(math.MaxInt64)
		for _, opts := range manual {
			d, err := latency(q.src, opts)
			if err != nil {
				return err
			}
			best = min(best, d)
		}
		logSum += math.Log(float64(auto) / float64(best))
	}
	v["autopilot.regret"] = math.Exp(logSum / float64(len(w.queries)))
	return nil
}
