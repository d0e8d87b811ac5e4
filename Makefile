GO ?= go

.PHONY: build test verify fuzz lint-layers flake-guard tier-diff parallel-diff retired bench-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints the non-test Go lines of each package in the default build, and
# their total: the figure a change that claims less code quotes before and
# after.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
		       printf "%7d %s\n", n, $$1; t += n } END { printf "%7d total\n", t }'

# verify is the CI gate: compile everything, check that gofmt would change
# nothing, lint with vet, enforce the observability layering invariant, repeat
# the three once-flaky concurrency tests, check the engine's two compilers
# against each other and parallel execution against serial, and run the full
# suite under the race detector (the guardrail watchdog, background tier-up,
# and the parallel morsel worker pool are concurrency-heavy paths).
verify: lint-layers
	$(GO) build ./...
	@files=$$($$($(GO) env GOROOT)/bin/gofmt -l .) || exit 1; if [ -n "$$files" ]; then \
		echo "verify: gofmt -l lists files that are not formatted:" >&2; echo "$$files" >&2; exit 1; fi
	$(GO) vet ./...
	$(MAKE) flake-guard
	$(MAKE) tier-diff
	$(MAKE) parallel-diff
	$(GO) test -race ./...

# tier-diff runs what pins the two compilers to each other and to the values
# computed outside them, ahead of the full suite so a compiler bug fails here
# by name: the tier-differential corpora (generated programs, every immediate
# form, every addressing mode), the abstract-stack hazards, the value-numbering
# hazards and the opcode × operand-place matrix (all checked against Go), the
# fuel-equivalence and exhaustion-point tests, the golden listings of the
# three hot kernels from either compiler and the value-numbering listings,
# and the density of the dispatch switch's opcode space. A pattern that stops
# matching after a rename would pass vacuously, so the number of selected
# tests is checked first.
TIER_DIFF = Differential|Fuel|Golden|OpcodeSpace|AbstractStack|NumericOpcodes|ValueNumbering
tier-diff:
	@n=$$($(GO) test -list '$(TIER_DIFF)' ./internal/engine/... | grep -c '^Test\|^Fuzz'); \
		if [ $$n -lt 18 ]; then echo "tier-diff: the pattern selects $$n tests, expected at least 18" >&2; exit 1; fi
	$(GO) test -race -run '$(TIER_DIFF)' ./internal/engine/...

# parallel-diff runs what pins a worker pool to serial execution, ahead of the
# full suite so a barrier bug fails here by name: the serial-vs-parallel
# differentials (public corpus, TPC-H, prepared LIMIT, the join-build corpus
# over six backends × workers {1,2,4}, and the core-level group, keyless,
# sort, scan, join and FLOAT-key cases; the sort differentials on 2, 3 and 4
# workers over every key type), the library-style differentials (Styled: the
# library sort's sorted-run barrier, every style flag over the style corpus),
# the generated sort merge against Go's stable merge, the fallback matrix
# through Execute and its DESIGN.md rendering, the faults, engine panics,
# cancellations and memory limits injected into the group, keyless, sort and
# join barriers and the morsel loop, the
# scheduler's lease and yield tests, the CHAR corpus (CharWord: equality,
# IN, GROUP BY and joins across CHAR widths on six backends × workers
# {1,2,4}, the word-width routines against Go, values on page boundaries),
# and the page-recycling tests (ParallelRelease: a two-worker query stopped
# mid-morsel by a fault or a cancellation hands its pages back only after
# both workers returned; ParallelQueriesLeaveColumnsIntact: mapped table
# columns are never cleared or recycled), and the tier-switch sweep
# (TierSwitch: tier-2 code published before each morsel of a serial run in
# turn, against tier 1 only), and the statement cache (StmtCache: every
# corpus query as a statement miss, a statement hit and with the plan cache
# off; re-planning after INSERT, DDL, loads and flushes; LIMIT ?; error
# texts on a hit; concurrent hits sharing one stored plan) —
# under the race detector on two cores, where workers really interleave. A pattern that stops matching after
# a rename would pass vacuously, so the number of selected tests is checked
# first.
PARALLEL_DIFF = Parallel|Barrier|Scheduler|Fallback|JoinBuild|Styled|CharWord|TierSwitch|StmtCache
parallel-diff:
	@n=$$($(GO) test -list '$(PARALLEL_DIFF)' . ./internal/core | grep -c '^Test'); \
		if [ $$n -lt 55 ]; then echo "parallel-diff: the pattern selects $$n tests, expected at least 55" >&2; exit 1; fi
	GOMAXPROCS=2 $(GO) test -race -run '$(PARALLEL_DIFF)' . ./internal/core

# retired prints the instructions each tier's code retires per TPC-H query
# (tier forced) next to the recorded parent figures, with the counter compiled
# into the engine's one run loop by a build tag (it is absent from normal
# builds), and fails above the ceilings in retired_test.go.
retired:
	$(GO) test -tags turbofan_count -run 'TestRetiredInstructions' -count=1 -v .

# flake-guard repeats the tests that used to fail intermittently on two
# cores — the scheduler's concurrent acquire/release (a lease granted fewer
# extras than the ids probed), the flight recorder's dump-during-churn (an
# unbounded producer), the shell's interrupt (the closed input channel
# winning the select against ctx.Done()) and the join build's memory limit (a
# budget taken from one two-worker run's high-water marks, which depend on
# the morsel schedule) — 20 times under the race detector, so a relapse fails
# here by name instead of once in a while somewhere in the full suite. With
# them runs the release of a cancelled two-worker query's pages, whose
# interleaving of watchdog, workers and release differs from run to run, and
# the tier-up drain's exit after an eviction (it read its count of held
# compiles after releasing them, when the drains had already gone on).
flake-guard:
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestScheduler(ConcurrentAcquireRelease|YieldBeyondGrant)$$' ./internal/core
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestFlightRecorderConcurrent$$' ./internal/obs
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestReplInterrupt$$' ./cmd/wasmdb
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestJoinBuildMemoryLimitInReserve$$' .
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestParallelReleaseAfterCancel$$' .
	GOMAXPROCS=2 $(GO) test -race -count=20 -run 'TestTierUpDrainExitsAfterEviction$$' .

# internal/obs must stay at the bottom of the dependency graph: it may
# import nothing from this module, or every layer recording into it would
# risk an import cycle. Fails if any wasmdb-internal import appears.
# internal/plancache sits above core and engine and below the public API:
# it may import only core, engine, and obs, and nothing under core or
# engine may import it back.
lint-layers:
	@if grep -n '"wasmdb/' internal/obs/*.go; then \
		echo "lint-layers: internal/obs must not import other wasmdb packages" >&2; \
		exit 1; \
	fi
	@if grep -rn '"wasmdb/internal/plancache"' internal/core internal/engine; then \
		echo "lint-layers: core/engine must not import internal/plancache (it sits above them)" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/plancache/*.go | grep -v 'wasmdb/internal/core"\|wasmdb/internal/engine"\|wasmdb/internal/obs"'; then \
		echo "lint-layers: internal/plancache may import only core, engine, and obs" >&2; \
		exit 1; \
	fi
	@if grep -rn '"wasmdb/internal/server"' internal/core internal/engine internal/plancache; then \
		echo "lint-layers: core/engine/plancache must not import internal/server (it sits above the public API)" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/server/*.go | grep -v '_test.go:' | grep -v '"wasmdb"\|wasmdb/internal/obs"\|wasmdb/internal/faultpoint"'; then \
		echo "lint-layers: internal/server may import only the public API (wasmdb), obs, and faultpoint" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/autopilot/*.go | grep -v '_test.go:' | grep -v 'wasmdb/internal/plan"\|wasmdb/internal/plancache"\|wasmdb/internal/obs"'; then \
		echo "lint-layers: internal/autopilot may import only plan, plancache, and obs" >&2; \
		exit 1; \
	fi
	@echo "lint-layers: ok (internal/obs imports stdlib only; plancache between core/engine and the API; server above the API; autopilot beside the planner)"

# bench-smoke first builds and runs two of the paper's figures at a small
# scale (Fig 1 and the tier ablation), then every workload of the repo
# benchmark for three rounds, which checks each result against volcano and
# exits non-zero on any failure. It then checks the two disabled paths
# exactly: an untraced morsel dispatch and the default server's telemetry
# sinks allocate nothing (testing.AllocsPerRun == 0); and, as exactly, the
# always-on path's fixed cost: a warm two-worker query's trace, recorded
# and read back, allocates at most 2 objects, lexing TPC-H Q1 allocates once,
# and a warm BackendAuto query makes at most 110 allocations. Next it asserts the
# disabled-tracer contract on the morsel dispatch path in time: with no trace
# attached the telemetry must cost only a nil check, so traced-vs-untraced
# overhead stays ≈0% (≤5% allows timer noise). Next it holds the serving layer's telemetry budget: one
# parameterized /v1/query over HTTP with full telemetry (query log, every
# query captured and classified slow) may cost at most 5% over the default
# server, best of three runs each.
# Then it runs the per-query start-up benchmark once (rewire + instantiate +
# q_init, 1 and 2 workers) and prints its B/op: demand-zero linear memory
# whose pages and frame arenas are recycled keeps that to a few KiB per
# worker, a page or arena no longer recycled shows as 64 KiB or more, and an
# eager allocation as MiB.
# Then it prints the join-build benchmark once (build rows {2 k, 32 k, 256 k} ×
# build rows per key {1, 4} × workers {1, 2}): ns per build row for scan,
# tuple append and barrier together, and the barrier alone in µs.
# Then it prints the engine's kernel benchmarks once: ns/row and emitted
# instructions of the three golden kernels on each tier, and each compiler's
# speed in B/µs over the same three modules with its B/op and allocs/op — the
# optimizing compiler's allocation is paid inside every cold query's
# alloc_kb_per_query.
# Then it prints the cold-compile benchmark once: code generation plus the
# engine's decode, validate and baseline compile over the seven measured
# queries in both styles, in ns/op, B/op and allocs/op — the per-query fixed
# cost of every plan-cache miss, whose bytes TestColdCompileAllocBudget bounds.
# Then it prints the warm-query benchmark once: a prepared point aggregate
# served from the plan cache, in B/op and allocs/op — the figure
# TestWarmQueryAllocBudget bounds, kept low by recycled pages and arenas.
# Last it runs the auto-versus-backends benchmark once: the ten auto-mixed
# shapes (SF 0.02, seed 1) warm on auto, volcano, vectorized, liftoff and
# adaptive, in ns/op and B/op — the comparison that keeps auto compiling.
bench-smoke:
	$(GO) run ./cmd/bench -experiment fig1,abl-tier -sf 0.01 -reps 1
	$(GO) run ./benchmark -workload all -rounds 3 -seed 1
	$(GO) test . ./internal/core ./internal/server ./internal/obs ./internal/sql -run 'AllocatesNothing$$|ExactAllocs$$' -count=1
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkMorselDispatch(Untraced|Traced)$$' -benchtime 200x -count 3 \
		| awk '/DispatchUntraced/ { if (u==0 || $$3<u) u=$$3 } \
		       /DispatchTraced/   { if (t==0 || $$3<t) t=$$3 } \
		       END { if (u==0 || t==0) { print "bench-smoke: missing morsel-dispatch benchmark output" > "/dev/stderr"; exit 1 } \
		             pct=(t-u)*100.0/u; \
		             printf "bench-smoke: morsel-dispatch tracer overhead %.1f%% (untraced %d ns/op, traced %d ns/op)\n", pct, u, t; \
		             if (pct > 5) { print "bench-smoke: tracer overhead exceeds the ≈0% budget" > "/dev/stderr"; exit 1 } }'
	@$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerQueryTelemetry(Off|Full)$$' -benchtime 100x -count 3 \
		| awk '/TelemetryOff/  { if (u==0 || $$3<u) u=$$3 } \
		       /TelemetryFull/ { if (t==0 || $$3<t) t=$$3 } \
		       END { if (u==0 || t==0) { print "bench-smoke: missing server telemetry benchmark output" > "/dev/stderr"; exit 1 } \
		             pct=(t-u)*100.0/u; \
		             printf "bench-smoke: server telemetry overhead %.1f%% (off %d ns/op, full %d ns/op)\n", pct, u, t; \
		             if (pct > 5) { print "bench-smoke: telemetry overhead exceeds the 5% budget" > "/dev/stderr"; exit 1 } }'
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkExecuteStartup$$' -benchtime 500x -benchmem \
		| awk '/^BenchmarkExecuteStartup/ { n++; printf "bench-smoke: %s %s init-ns/op, %s B/op\n", $$1, $$5, $$7 } \
		       END { if (n != 2) { print "bench-smoke: missing start-up benchmark output" > "/dev/stderr"; exit 1 } }'
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkJoinBuild$$' -benchtime 3x \
		| awk '/^BenchmarkJoinBuild/ { n++; printf "bench-smoke: %s %s %s, %s %s\n", $$1, $$7, $$8, $$5, $$6 } \
		       END { if (n != 12) { print "bench-smoke: missing join-build benchmark output" > "/dev/stderr"; exit 1 } }'
	@$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkTier[12]Kernels|Benchmark(Turbofan|Baseline)Compile$$' -benchtime 5x -benchmem \
		| awk '/^Benchmark/ { n++; printf "bench-smoke: %s", $$1; for (i = 5; i <= NF; i += 2) printf " %s %s", $$i, $$(i+1); print "" } \
		       END { if (n != 8) { print "bench-smoke: missing kernel benchmark output" > "/dev/stderr"; exit 1 } }'
	@$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkColdCompile$$' -benchtime 20x -benchmem \
		| awk '/^BenchmarkColdCompile/ { n++; printf "bench-smoke: %s %s ns/op, %s B/op, %s allocs/op\n", $$1, $$3, $$5, $$7 } \
		       END { if (n != 1) { print "bench-smoke: missing cold-compile benchmark output" > "/dev/stderr"; exit 1 } }'
	@$(GO) test . -run '^$$' -bench 'BenchmarkWarmQuery$$' -benchtime 200x -benchmem \
		| awk '/^BenchmarkWarmQuery/ { n++; printf "bench-smoke: %s %s B/op, %s allocs/op\n", $$1, $$5, $$7 } \
		       END { if (n != 1) { print "bench-smoke: missing warm-query benchmark output" > "/dev/stderr"; exit 1 } }'
	@$(GO) test . -run '^$$' -bench 'BenchmarkAutoVersusBackends$$' -benchtime 1x -benchmem \
		| awk '/^BenchmarkAutoVersusBackends\// { n++; printf "bench-smoke: %s %s ns/op, %s B/op\n", $$1, $$3, $$5 } \
		       END { if (n != 50) { print "bench-smoke: missing auto-versus-backends benchmark output" > "/dev/stderr"; exit 1 } }'

# fuzz the adversarial-module executor, the tier-differential generator and
# the bit-flipped real modules (TPC-H Q1 and Q3, the kernel library) that
# engine.Compile must reject or compile on every tier without a panic, for a
# short budget each (an input that grows coverage is minimised for at most a
# second, or the slow targets spend their budget there). Every target must
# exist by name: -fuzz with no match is not an error.
fuzz:
	@$(GO) test -list '^FuzzAdversarialModuleExecution$$' . | grep -q '^Fuzz' && \
		$(GO) test -list '^FuzzTierDifferential$$' ./internal/engine | grep -q '^Fuzz' && \
		$(GO) test -list '^FuzzCompileMutatedModule$$' ./internal/engine | grep -q '^Fuzz' || \
		{ echo "fuzz: a fuzz target is missing" >&2; exit 1; }
	$(GO) test . -run '^$$' -fuzz FuzzAdversarialModuleExecution -fuzztime 30s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzTierDifferential -fuzztime 20s -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzCompileMutatedModule -fuzztime 20s -fuzzminimizetime 1s
