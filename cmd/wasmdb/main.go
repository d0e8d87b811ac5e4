// Command wasmdb is an interactive SQL shell — or, with -serve, a
// concurrent HTTP query service — over the wasmdb engine.
//
//	wasmdb                 # empty database
//	wasmdb -tpch 0.01      # preloaded with TPC-H at the given scale factor
//	wasmdb -timeout 5s     # per-query wall-clock budget
//	wasmdb -trace out.json # record every query; write Chrome trace_event
//	                       # JSON on exit (open in Perfetto)
//	wasmdb -serve :8080    # HTTP query service with admission control
//	wasmdb -serve :8080 -drain 30s  # drain deadline for graceful shutdown
//	wasmdb -querylog q.jsonl        # structured query log, one JSON record
//	                                # per query (both modes)
//	wasmdb -slow 100ms              # slow-query threshold for log promotion
//	                                # and flight-recorder capture
//	wasmdb -serve :8080 -pprof      # expose net/http/pprof under /debug/pprof/
//
// Both modes shut down gracefully on SIGINT/SIGTERM: the shell cancels any
// running query and still writes its session trace; the server stops
// admitting, drains in-flight queries under the -drain deadline, then
// cancels whatever remains.
//
// EXPLAIN ANALYZE <query> executes the query and prints the plan annotated
// with per-phase timings and the adaptive tier-switch timeline.
//
// Meta commands:
//
//	\backend <name>       switch execution backend (auto, wasm, liftoff,
//	                      turbofan, hyper, vectorized, volcano); "auto" lets
//	                      the autopilot pick interpret/compile and workers
//	                      per query ("\set backend <name>" is an alias)
//	\set parallelism <n>  morsel worker-pool size for the Wasm backends
//	                      (1 = serial, 0 = GOMAXPROCS)
//	\set plancache on|off reuse compiled modules across same-shaped queries
//	                      (default on; applies to the Wasm backends)
//	\explain <sql>        show the plan and pipeline dissection
//	\wat <sql>            dump the generated WebAssembly (text form)
//	\timing               toggle per-query phase timings
//	\metrics              dump the process-wide metrics registry
//	\flightrec [file]     dump the session flight recorder (slow, errored,
//	                      and sampled queries) as Chrome trace_event JSON,
//	                      to the terminal or to file
//	\tpch <id>            run a built-in TPC-H query (Q1, Q3, Q6, Q12, Q14)
//	\q                    quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wasmdb"
	"wasmdb/internal/server"
)

func main() {
	tpchSF := flag.Float64("tpch", 0, "preload TPC-H at this scale factor")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 disables)")
	tracePath := flag.String("trace", "", "record every query and write Chrome trace_event JSON here on exit")
	serveAddr := flag.String("serve", "", "run as an HTTP query service on this address instead of the shell")
	drain := flag.Duration("drain", 15*time.Second, "serve mode: how long shutdown waits for in-flight queries before canceling them")
	querylog := flag.String("querylog", "", "append one JSON record per query to this file (structured query log)")
	slow := flag.Duration("slow", 500*time.Millisecond, "slow-query threshold for query-log promotion and flight-recorder capture")
	pprofFlag := flag.Bool("pprof", false, "serve mode: expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	db := wasmdb.Open()
	if *tpchSF > 0 {
		fmt.Printf("loading TPC-H at SF %g …\n", *tpchSF)
		if err := db.LoadTPCH(*tpchSF, 42); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var qlogFile *os.File
	if *querylog != "" {
		var err error
		qlogFile, err = os.OpenFile(*querylog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer qlogFile.Close()
	}

	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg := server.Config{SlowQuery: *slow, EnablePprof: *pprofFlag}
		if qlogFile != nil {
			cfg.QueryLogWriter = qlogFile
		}
		fmt.Printf("serving on http://%s (drain %v)\n", ln.Addr(), *drain)
		if err := serveOn(ctx, db, ln, cfg, *drain, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	repl(ctx, db, os.Stdin, os.Stdout, replConfig{
		timeout:   *timeout,
		tracePath: *tracePath,
		slow:      *slow,
		qlogFile:  qlogFile,
	})
}

// serveOn runs the query service on ln until ctx is canceled (SIGINT or
// SIGTERM), then shuts down gracefully: stop admitting, drain in-flight
// queries under the drain deadline, cancel stragglers through the context
// plumbing, and only then close the HTTP listener.
func serveOn(ctx context.Context, db *wasmdb.DB, ln net.Listener, cfg server.Config, drain time.Duration, out io.Writer) error {
	srv := server.New(db, cfg)
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "shutting down: draining in-flight queries (deadline %v) …\n", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	<-serveErr // http.ErrServerClosed — the serve goroutine has exited
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if drainErr != nil {
		fmt.Fprintln(out, "drain deadline passed; remaining queries were canceled")
	} else {
		fmt.Fprintln(out, "drained cleanly")
	}
	return nil
}

// replConfig carries the shell's flag-derived settings.
type replConfig struct {
	timeout   time.Duration
	tracePath string
	// slow is the threshold above which a query is promoted into the query
	// log and captured by the session flight recorder.
	slow time.Duration
	// qlogFile, when non-nil, receives one JSON record per query.
	qlogFile *os.File
}

// shell holds the REPL's mutable session state.
type shell struct {
	db  *wasmdb.DB
	ctx context.Context
	out io.Writer

	backend wasmdb.Backend
	timing  bool
	timeout time.Duration
	// slow is the flight-recorder / query-log slow threshold.
	slow time.Duration
	// frec captures slow, errored, and 1-in-N sampled queries for \flightrec.
	frec *wasmdb.FlightRecorder
	// qlogEnc, when set, appends one JSON query-log record per query
	// (the shell is single-threaded, so a bare encoder suffices).
	qlogEnc *json.Encoder
	// parallelism is the morsel worker-pool size for Wasm-backed queries
	// (0 or 1 = serial execution, matching the engine default).
	parallelism int
	// plancacheOff disables compiled-module reuse across same-shaped
	// queries (\set plancache off).
	plancacheOff bool
	// tracing, when set, collects one trace per executed query for the
	// session-wide trace_event export written at exit.
	tracing bool
	traces  []*wasmdb.Trace
}

// repl reads statements from in and writes results to out until EOF, \q, or
// ctx cancellation (SIGINT/SIGTERM). Every failure — parse error, trap,
// timeout, even an engine panic — is printed and the loop continues; a bad
// query must never kill the shell. Canceling ctx aborts the in-flight query
// through its context and still runs the exit path, so a session trace
// (-trace) is written even on interrupt. With a non-empty tracePath, every
// query is traced and the session's timeline is written there as Chrome
// trace_event JSON when the loop ends.
func repl(ctx context.Context, db *wasmdb.DB, in io.Reader, out io.Writer, cfg replConfig) {
	tracePath := cfg.tracePath
	sh := &shell{
		db: db, ctx: ctx, out: out,
		backend: wasmdb.BackendWasm,
		timeout: cfg.timeout,
		tracing: tracePath != "",
		slow:    cfg.slow,
		frec:    wasmdb.NewFlightRecorder(256, 64),
	}
	if cfg.qlogFile != nil {
		sh.qlogEnc = json.NewEncoder(cfg.qlogFile)
	}

	// The scanner feeds a channel so the loop can select against ctx: a
	// signal interrupts the session even while blocked on input. (A reader
	// parked on an un-closable stdin is released when the process exits.)
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()

	fmt.Fprintln(out, "wasmdb shell — SQL → WebAssembly → adaptive execution. \\q to quit.")
loop:
	for {
		fmt.Fprintf(out, "%s> ", sh.backend)
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "\ninterrupted")
			break loop
		case raw, ok := <-lines:
			if !ok {
				// On cancellation the scanner goroutine closes lines too, and
				// the select may see that before ctx.Done(): still an interrupt.
				if ctx.Err() != nil {
					fmt.Fprintln(out, "\ninterrupted")
				}
				break loop
			}
			line := strings.TrimSpace(raw)
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "\\") {
				if !sh.meta(line) {
					break loop
				}
				continue
			}
			sh.runSQL(line)
		}
	}
	if sh.tracing {
		if err := writeSessionTrace(tracePath, sh.traces); err != nil {
			fmt.Fprintln(out, "error writing trace:", err)
		} else {
			fmt.Fprintf(out, "wrote %d query trace(s) to %s\n", len(sh.traces), tracePath)
		}
	}
}

// writeSessionTrace exports the session's query traces for Perfetto.
func writeSessionTrace(path string, traces []*wasmdb.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wasmdb.WriteTraceEvents(f, traces...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (sh *shell) meta(line string) bool {
	cmd, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	switch cmd {
	case "\\q", "\\quit":
		return false
	case "\\timing":
		sh.timing = !sh.timing
		fmt.Fprintf(sh.out, "timing %v\n", sh.timing)
	case "\\metrics":
		fmt.Fprint(sh.out, sh.db.Metrics().Dump())
	case "\\flightrec":
		if sh.frec.Len() == 0 {
			fmt.Fprintln(sh.out, "flight recorder is empty (captures slow, errored, and 1-in-64 sampled queries)")
			return true
		}
		if arg == "" {
			if err := sh.frec.WriteTraceEvents(sh.out); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
			}
			fmt.Fprintln(sh.out)
			return true
		}
		f, err := os.Create(arg)
		if err == nil {
			err = sh.frec.WriteTraceEvents(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		} else {
			fmt.Fprintf(sh.out, "wrote %d captured quer%s to %s\n",
				sh.frec.Len(), map[bool]string{true: "y", false: "ies"}[sh.frec.Len() == 1], arg)
		}
	case "\\backend":
		if b, ok := wasmdb.ParseBackend(arg); ok {
			sh.backend = b
			break
		}
		var names []string
		for b := wasmdb.Backend(0); b.String() != "unknown"; b++ {
			names = append(names, b.String())
		}
		fmt.Fprintln(sh.out, "backends:", strings.Join(names, ", "))
	case "\\set":
		key, val, _ := strings.Cut(arg, " ")
		switch key {
		case "backend":
			// Alias for \backend, so "\set backend auto" reads naturally.
			return sh.meta("\\backend " + strings.TrimSpace(val))
		case "parallelism":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < 0 {
				fmt.Fprintln(sh.out, "usage: \\set parallelism <n>  (1 = serial, 0 = all cores)")
				return true
			}
			if n == 0 {
				n = runtime.GOMAXPROCS(0)
			}
			sh.parallelism = n
			fmt.Fprintf(sh.out, "parallelism %d\n", n)
		case "plancache":
			switch strings.TrimSpace(val) {
			case "on":
				sh.plancacheOff = false
			case "off":
				sh.plancacheOff = true
			default:
				fmt.Fprintln(sh.out, "usage: \\set plancache on|off")
				return true
			}
			fmt.Fprintf(sh.out, "plancache %s\n", strings.TrimSpace(val))
		default:
			fmt.Fprintln(sh.out, "settable: backend, parallelism, plancache")
		}
	case "\\explain":
		out, err := sh.db.Explain(arg)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		} else {
			fmt.Fprint(sh.out, out)
		}
	case "\\wat":
		out, err := sh.db.ExplainWAT(arg)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		} else {
			fmt.Fprint(sh.out, out)
		}
	case "\\tpch":
		src, ok := wasmdb.TPCHQuery(strings.ToUpper(arg))
		if !ok {
			fmt.Fprintln(sh.out, "known queries: Q1, Q3, Q6, Q12, Q14")
			return true
		}
		fmt.Fprintln(sh.out, src)
		sh.runSQL(src)
	default:
		fmt.Fprintln(sh.out, "meta commands: \\backend, \\set, \\explain, \\wat, \\timing, \\metrics, \\flightrec, \\tpch, \\q")
	}
	return true
}

func (sh *shell) runSQL(src string) {
	// Last line of defense: whatever escapes the engine's own panic
	// isolation is reported like any other error and the shell lives on.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(sh.out, "error: internal panic: %v\n", r)
		}
	}()
	upper := strings.ToUpper(strings.TrimSpace(src))
	if strings.HasPrefix(upper, "CREATE") || strings.HasPrefix(upper, "INSERT") {
		if err := sh.db.Exec(src); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		} else {
			fmt.Fprintln(sh.out, "ok")
		}
		return
	}
	opts := []wasmdb.Option{wasmdb.WithBackend(sh.backend)}
	if sh.timeout > 0 {
		opts = append(opts, wasmdb.WithTimeout(sh.timeout))
	}
	if sh.parallelism > 1 {
		opts = append(opts, wasmdb.WithParallelism(sh.parallelism))
	}
	if sh.plancacheOff {
		opts = append(opts, wasmdb.WithPlanCache(false))
	}
	if strings.HasPrefix(upper, "EXPLAIN ANALYZE") {
		rest := strings.TrimSpace(src)[len("EXPLAIN ANALYZE"):]
		out, err := sh.db.ExplainAnalyze(strings.TrimSpace(rest), opts...)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		} else {
			fmt.Fprintln(sh.out, out)
		}
		return
	}
	var tr *wasmdb.Trace
	if sh.tracing {
		tr = wasmdb.NewTrace()
		opts = append(opts, wasmdb.WithTrace(tr))
	}
	// Feed every query into the session telemetry: slow classification
	// against -slow, the flight recorder behind \flightrec, and the
	// structured query log when -querylog is set.
	opts = append(opts, wasmdb.WithQueryLog(func(rec wasmdb.QueryLogRecord) {
		if sh.slow > 0 && rec.TotalNs >= sh.slow.Nanoseconds() {
			rec.Slow = true
		}
		sh.frec.Observe(rec)
		if sh.qlogEnc != nil {
			if err := sh.qlogEnc.Encode(rec); err != nil {
				fmt.Fprintln(sh.out, "querylog error:", err)
			}
		}
	}))
	// The session context flows into execution, so SIGINT aborts the query
	// mid-morsel instead of waiting it out.
	res, err := sh.db.QueryContext(sh.ctx, src, opts...)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if tr != nil {
		sh.traces = append(sh.traces, tr)
	}
	fmt.Fprint(sh.out, res.Format())
	fmt.Fprintf(sh.out, "(%d rows)\n", res.NumRows())
	if sh.timing {
		s := res.Stats
		fmt.Fprintf(sh.out, "translate=%v liftoff=%v turbofan=%v execute=%v morsels(lo/tf)=%d/%d module=%dB",
			s.Translate, s.Liftoff, s.Turbofan, s.Execute, s.MorselsLiftoff, s.MorselsTurbofan, s.ModuleBytes)
		if s.Workers > 1 {
			fmt.Fprintf(sh.out, " workers=%d pipelines(par/ser)=%d/%d", s.Workers, s.PipelinesParallel, s.PipelinesSerial)
		}
		fmt.Fprintln(sh.out)
	}
}
