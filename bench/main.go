// Command bench is the repository's benchmark: three workloads, from
// open-loop serving to large-program compile, each measured end to end
// and, in a traced run, layer by layer. See README.md.
//
//	bash bench/run.sh                      every workload, each in a child process
//	bash bench/run.sh -trace               ... plus a traced run per workload
//	bash bench/run.sh -runs 10 -out A.json ten seeds per workload
//	bash bench/run.sh -compare A.json B.json
//	bash bench/run.sh --workload serve-cold --seed 3 --seconds 25 --trace 0
//
// The last form runs one workload in this process and ends its output
// with one JSON line: correct, attempted, failed, and the metrics
// BENCHMARK.json names (end-to-end, or per-layer with --trace 1).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times each run sets its workload up; setup_s
// is the median.
const setupRuns = 3

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "measured window of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and a Chrome trace")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ... (every-workload mode)")
	out := fs.String("out", "", "results file of the every-workload mode (default bench/results.json)")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default bench/trace.json)")
	compareMode := fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if probs := sp.lint(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(stderr, "bench: BENCHMARK.json:", p)
		}
		return 2
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "results.json")
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(root, "bench", "trace.json")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *compareMode:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !compare(sp, a, b, stdout) {
			return 1
		}
		return 0
	case *workload != "":
		return runOne(ctx, sp, root, *workload, *seed, *seconds, *trace, *traceOut, stdout, stderr)
	default:
		return runAll(ctx, sp, root, *seed, *seconds, *runs, *trace, *out, *traceOut, stdout, stderr)
	}
}

// normalizeArgs turns "--trace 0" and "--trace 1" into "-trace=0" and
// "-trace=1": a bare -trace stays a switch, and the explicit form
// ("--trace 0") still parses.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload in this process, prints its metrics, a
// RESULT line with the whole record, and, last, the result line. It
// exits 1 when any program failed validation.
func runOne(ctx context.Context, sp *spec, root, name string, seed int64, seconds int, trace bool,
	traceOut string, stdout, stderr io.Writer) int {
	pid := -1
	for i, w := range sp.Workloads {
		if w.Name == name {
			pid = i + 1
		}
	}
	if pid < 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(sp.workloadNames(), ", "))
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	e := &env{
		seed:    seed,
		window:  time.Duration(seconds) * time.Second,
		setups:  setupRuns,
		workDir: workDir,
		senders: runtime.GOMAXPROCS(0),
	}
	if trace {
		e.rec = newRecorder()
	}
	rec, err := runWorkload(ctx, name, e)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if trace {
		if err := e.rec.writeChrome(traceOut, pid, name); err != nil {
			fmt.Fprintln(stderr, "bench: writing trace:", err)
			return 1
		}
	}
	line, err := resultLine(sp, rec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRecord(stdout, sp, rec)
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "RESULT %s\n%s\n", full, line)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the last line of a one-workload run: correctness counts
// and the metrics BENCHMARK.json names — end-to-end ones, or per-layer
// ones for a traced run.
func resultLine(sp *spec, rec *record) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := sp.EndToEnd
	if rec.Trace {
		list = sp.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", rec.Workload, m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
}

// printRecord prints a run's metrics by name and unit: the end-to-end
// ones, the run's details, and, when traced, the per-layer ones.
func printRecord(w io.Writer, sp *spec, rec *record) {
	units := sp.units()
	valid := ""
	if !rec.Valid {
		valid = "  INVALID: the generator fell behind its schedule or the tail lacks samples"
	}
	fmt.Fprintf(w, "%s seed=%d window=%gs traced=%t attempted=%d failed=%d%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed, valid)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	line := func(name string) {
		if v, ok := rec.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, v, units[name])
		}
	}
	for _, m := range sp.EndToEnd {
		line(m.Name)
	}
	for _, name := range []string{"tail_ms", "tail_q", "samples", "lag_p99_ms", "lag_max_ms", "error_ratio"} {
		line(name)
	}
	if rec.Trace {
		for _, l := range layers {
			line(l.name)
		}
	}
}

// runAll runs every workload runs times, each run in a child process
// (the runner re-executes itself with --workload), writes the records
// and their medians and spreads to out, and prints the summary. With
// trace, each workload also gets one traced run of the first seed; its
// p50_ms minus the untraced one is the tracing overhead, and the
// traced runs' spans are merged into traceOut.
func runAll(ctx context.Context, sp *spec, root string, seed int64, seconds, runs int, trace bool,
	out, traceOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(build, "all-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	res := &results{Seed: seed, Seconds: seconds, Runs: runs}
	var traces []string
	bad := false
	for _, w := range sp.Workloads {
		wr := workloadResult{Name: w.Name}
		for k := 0; k < runs; k++ {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed + int64(k)), "-seconds", fmt.Sprint(seconds)}
			rec, err := child(ctx, exe, root, append(args, "-trace=0"), stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			bad = bad || rec.Failed > 0 || !rec.Valid
			wr.Runs = append(wr.Runs, *rec)
			if trace && k == 0 {
				tf := filepath.Join(workDir, w.Name+".trace.json")
				trec, err := child(ctx, exe, root, append(args, "-trace=1", "-trace-out", tf), stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				bad = bad || trec.Failed > 0
				trec.Metrics["trace.overhead_ms_p50"] = trec.Metrics["p50_ms"] - rec.Metrics["p50_ms"]
				fmt.Fprintf(stdout, "  %-40s %14.6g ms\n", "trace.overhead_ms_p50", trec.Metrics["trace.overhead_ms_p50"])
				wr.Traced = append(wr.Traced, *trec)
				traces = append(traces, tf)
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	res.summarize(sp)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if trace {
		if err := mergeTraces(traces, traceOut); err != nil {
			fmt.Fprintln(stderr, "bench: merging traces:", err)
			return 1
		}
	}
	printSummary(stdout, sp, res)
	fmt.Fprintf(stdout, "results: %s\n", out)
	if bad {
		fmt.Fprintln(stderr, "bench: some runs failed validation or were invalid")
		return 1
	}
	return 0
}

// child runs the runner on one workload in a child process, forwards
// its report, and returns its record. A run that failed validation
// still returns its record; only a run without one is an error.
func child(ctx context.Context, exe, root string, args []string, stdout, stderr io.Writer) (*record, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = root
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var rec *record
	for _, line := range strings.Split(buf.String(), "\n") {
		if body, ok := strings.CutPrefix(line, "RESULT "); ok {
			rec = &record{}
			if err := json.Unmarshal([]byte(body), rec); err != nil {
				return nil, fmt.Errorf("child %v: %w", args, err)
			}
			continue
		}
		if line != "" && !strings.HasPrefix(line, "{") {
			fmt.Fprintln(stdout, line)
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("child %v printed no result: %v", args, runErr)
	}
	return rec, nil
}

// mergeTraces concatenates the traced runs' Chrome trace files, each
// already under its own process id, into one.
func mergeTraces(files []string, out string) error {
	var all []json.RawMessage
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var t struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		all = append(all, t.TraceEvents...)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": all})
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// printSummary prints, per workload and end-to-end metric, the median
// across runs and the spread (interquartile range over median).
func printSummary(w io.Writer, sp *spec, res *results) {
	fmt.Fprintf(w, "\n%-14s %-20s %14s %8s %-8s %s\n", "workload", "metric", "median", "spread", "unit", "runs")
	for _, wr := range res.Workloads {
		for _, m := range sp.EndToEnd {
			s := wr.Summary[m.Name]
			fmt.Fprintf(w, "%-14s %-20s %14.6g %7.2f%% %-8s %d\n", wr.Name, m.Name, s.Median, 100*s.Spread, m.Unit, len(wr.Runs))
		}
	}
}
