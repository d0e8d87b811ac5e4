// Command benchmark is the repository's performance ruler: five named
// workloads, end-to-end metrics measured through the public API with tracing
// off, and per-layer metrics from a separate traced pass that times calls
// into each package's exported functions. BENCHMARK.json at the repository
// root names the command, the metrics with their regression bounds, and the
// workloads; README.md in this directory defines everything it prints.
//
//	go run ./benchmark -workload all -seed 1            # every end-to-end metric
//	go run ./benchmark -workload adhoc-small -trace 1   # per-layer metrics + trace file
//	go run ./benchmark -compare A.json B.json           # gate B against A
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; the table for humans goes to
// standard error and the full report (header, every run, "claim": null) to
// -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceDir receives the traced pass's Chrome trace files, relative to the
// working directory; .gitignore names it.
const traceDir = ".bench_build"

// header stamps every output with what produced it.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Rounds     int    `json:"rounds"` // 0: run for Seconds instead
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload's run as stored in the -out report.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Rounds    int    `json:"rounds"`  // timed rounds (samples behind p50/p90)
	Queries   int    `json:"queries"` // queries per round
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// FirstFailure describes the first failed query, when there is one.
	FirstFailure string                 `json:"first_failure,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Extra carries printed-but-ungated numbers (p99, fail_ratio, per-span
	// self-time shares of the traced pass).
	Extra map[string]metricValue `json:"extra,omitempty"`
}

// report is the -out file: appended to by every run that names it, so a set
// of runs for -compare is produced by repeating the command.
type report struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
	// Claim is always null: this program measures, it does not claim.
	Claim *string `json:"claim"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for data, literals and generated shapes")
	seconds := fs.Int("seconds", 15, "timed seconds per workload")
	rounds := fs.Int("rounds", 0, "run exactly this many timed rounds instead of -seconds")
	trace := fs.Int("trace", 0, "1: run the traced pass and print the per-layer metrics")
	out := fs.String("out", "", "append the run records to this JSON report")
	compare := fs.Bool("compare", false, "compare two reports: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *rounds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	// One process is the whole load: pin the scheduler so every run, on
	// every commit, has the same two cores at most.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	hdr := header{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: procs, Seed: *seed, Seconds: *seconds, Rounds: *rounds,
	}
	fmt.Fprintf(stderr, "# benchmark commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%d rounds=%d trace=%d\n",
		hdr.Commit, hdr.GoVersion, hdr.NumCPU, hdr.GOMAXPROCS, hdr.Seed, hdr.Seconds, hdr.Rounds, *trace)

	cfg := defaultConfig(*seed, *seconds, *rounds)
	code := 0
	var records []runRecord
	for _, def := range defs {
		var rec runRecord
		var err error
		if *trace == 1 {
			rec, err = runTraced(def, cfg, traceDir, stderr)
		} else {
			rec, err = runUntraced(def, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		printTable(stderr, rec)
		line, _ := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d queries failed (first: %s)\n",
				def.name, rec.Failed, rec.Attempted, rec.FirstFailure)
			code = 1
		}
		records = append(records, rec)
		fence() // the next workload starts from a collected heap
	}
	if *out != "" {
		if err := appendReport(*out, hdr, records); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// commit reports the revision being measured: the VCS stamp of the binary
// when there is one (go build), else what .git in the working directory
// points at (go run stamps nothing), else "unknown" (a bare checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(b))
	}
	if len(rev) < 12 {
		return "unknown"
	}
	return rev[:12]
}

func appendReport(path string, hdr header, records []runRecord) error {
	rep, err := loadReport(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rep.Header = hdr
	rep.Runs = append(rep.Runs, records...)
	rep.Claim = nil
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
