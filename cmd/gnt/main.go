// Command gnt runs the GIVE-N-TAKE pipeline on a mini-Fortran program:
// it parses the program, builds the interval flow graph, solves the READ
// and WRITE communication placement problems, and prints the annotated
// program — or, with -mode, the flow graph, the dataflow variable dump,
// the PRE comparison, the prefetch placement, an executed machine-model
// comparison, or an observability report.
//
// Usage:
//
//	gnt [flags] [file.f]        (reads stdin when no file is given)
//
//	-mode comm      annotated program with READ/WRITE placement (default)
//	-mode graph     the interval flow graph (nodes in preorder, typed edges)
//	-mode dump      every dataflow variable of the READ problem
//	-mode pre       classical PRE comparison (Morel-Renvoise, LCM, GNT)
//	-mode prefetch  the program annotated with PREFETCH issue/demand pairs
//	-mode run       execute naive vs atomic vs split under the cost model
//	-mode stats     full observability report (phases, solver, runtime)
//	-mode check     statically verify C1–C3/O1 and lint the placement
//	-mode serve     run the hardened HTTP analysis service (see -addr)
//	-mode route     run the cluster router in front of -nodes serve nodes
//	-addr addr      listen address for -mode serve/route (default :8075)
//	-nodes a,b,c    comma-separated serve node addresses for -mode route
//	-replicas K     replica-set size per key for -mode route (default 2)
//	-probe-ms N     health-probe interval in ms for -mode route (default 250)
//	-workers N      engine worker count for -mode serve, sizing its stage pipeline (0: GOMAXPROCS)
//	-cache-mb N     result-cache budget in MiB for -mode serve (0: default, -1: off)
//	-atomic         emit atomic READ/WRITE instead of Send/Recv halves
//	-explain node   why communication is placed at that node (or "all")
//	-trace out.json write a Chrome trace-event profile of the pipeline
//	-json           render -mode stats/check as JSON instead of text
//	-mutate seed    corrupt one placement bit before -mode check (0: off)
//	-n int          problem size for -mode run (default 256)
//	-seed int       branch-condition seed for -mode run
//	-faults         inject seeded transport faults in -mode run
//	-drop float     per-transmission drop probability (default 0.2)
//	-dup float      duplicate probability (default 0.1)
//	-delay float    delay probability (default 0.1)
//	-reorder float  reorder-slip probability (default 0.05)
//	-timeout int    ack timeout in steps before retransmit (default 64)
//	-retries int    retransmission budget per message (default 3)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"givetake/internal/cfg"
	"givetake/internal/check"
	"givetake/internal/check/mutate"
	"givetake/internal/cluster"
	"givetake/internal/comm"
	"givetake/internal/interp"
	"givetake/internal/ir"
	"givetake/internal/machine"
	"givetake/internal/memopt"
	"givetake/internal/netsim"
	"givetake/internal/obs"
	"givetake/internal/pre"
	"givetake/internal/serve"

	gt "givetake"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gnt:", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given streams; main is a thin wrapper
// so tests can drive every mode in-process. Diagnostics (flag errors,
// usage) go to stderr so piped output stays clean.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gnt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "comm", "comm | graph | dump | pre | prefetch | run | stats | check | serve | route")
	addr := fs.String("addr", ":8075", "listen address for -mode serve/route")
	nodes := fs.String("nodes", "", "comma-separated serve node addresses for -mode route")
	replicas := fs.Int("replicas", 0, "replica-set size per key for -mode route (0: default 2)")
	probeMS := fs.Int64("probe-ms", 0, "health-probe interval in ms for -mode route (0: default 250)")
	workers := fs.Int("workers", 0, "engine worker count for -mode serve, sizing its stage pipeline (0: GOMAXPROCS)")
	cacheMB := fs.Int64("cache-mb", 0, "result-cache budget in MiB for -mode serve (0: default, -1: off)")
	journalDir := fs.String("journal-dir", "", "durable result journal directory for -mode serve (empty: no journal)")
	journalFlushMS := fs.Int64("journal-flush-ms", 0, "max time a result waits for group commit, in ms (0: default 50)")
	journalMaxBatch := fs.Int("journal-max-batch", 0, "max results per journal group commit (0: default 64)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for -mode serve (empty: off)")
	accessLogEvery := fs.Int("access-log-every", 0, "log every nth analysis request as a JSON line to stderr (0: off, 1: all)")
	atomic := fs.Bool("atomic", false, "emit atomic READ/WRITE instead of Send/Recv halves")
	explain := fs.String("explain", "", "explain the placement at a node (preorder number, or \"all\")")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON profile to this file")
	jsonOut := fs.Bool("json", false, "render -mode stats or -mode check as JSON")
	mutateSeed := fs.Int64("mutate", 0, "seed one placement corruption before -mode check (0: off)")
	n := fs.Int64("n", 256, "problem size for -mode run")
	seed := fs.Int64("seed", 1, "branch-condition seed for -mode run")
	faults := fs.Bool("faults", false, "inject seeded transport faults in -mode run")
	drop := fs.Float64("drop", netsim.Default.Drop, "per-transmission drop probability (with -faults)")
	dup := fs.Float64("dup", netsim.Default.Dup, "duplicate probability (with -faults)")
	delay := fs.Float64("delay", netsim.Default.Delay, "delay probability (with -faults)")
	reorder := fs.Float64("reorder", netsim.Default.Reorder, "reorder-slip probability (with -faults)")
	timeout := fs.Int64("timeout", netsim.DefaultTimeout, "ack timeout in steps before retransmit")
	retries := fs.Int("retries", netsim.DefaultMaxRetries, "retransmission budget per message (0: degrade on first loss)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mode == "route" {
		return runRoute(*addr, *nodes, *replicas, *probeMS, stderr)
	}
	if *mode == "serve" {
		return runServe(serveFlags{
			addr: *addr, workers: *workers, cacheMB: *cacheMB,
			journalDir: *journalDir, journalFlushMS: *journalFlushMS,
			journalMaxBatch: *journalMaxBatch,
			pprofAddr:       *pprofAddr,
			accessLogEvery:  *accessLogEvery,
		}, stderr)
	}

	// a recorder exists only when something will consume it; everywhere
	// else the pipeline sees a nil Collector and pays nothing
	var rec *obs.Recorder
	var col obs.Collector
	if *tracePath != "" || *mode == "stats" {
		rec = obs.NewRecorder(obs.Config{Mem: true})
		col = rec
	}

	src, err := readInput(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	program := fs.Arg(0)
	if program == "" {
		program = "<stdin>"
	}
	end := obs.Begin(col, obs.SpanParse)
	prog, err := gt.Parse(src)
	if err != nil {
		end()
		return err
	}
	end("decls", len(prog.Decls))

	cfgRun := interp.Config{N: *n, Seed: *seed, Collector: col}
	if *faults {
		budget := *retries
		if budget == 0 {
			budget = -1 // flag 0 = no retries (config 0 means default)
		}
		cfgRun.Faults = netsim.FaultConfig{
			Drop: *drop, Dup: *dup, Delay: *delay, Reorder: *reorder,
			Timeout: *timeout, MaxRetries: budget,
		}
	}

	if err := dispatch(*mode, *atomic, *explain, *jsonOut, *mutateSeed, prog, cfgRun, rec, col, program, stdout); err != nil {
		return err
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// serveFlags carries the -mode serve flag values into runServe.
type serveFlags struct {
	addr            string
	workers         int
	cacheMB         int64
	journalDir      string
	journalFlushMS  int64
	journalMaxBatch int
	pprofAddr       string
	accessLogEvery  int
}

// runServe starts the hardened analysis service (internal/serve) and
// blocks until SIGINT/SIGTERM, then shuts down gracefully, draining
// in-flight requests and group-committing the journal's pending batch.
func runServe(f serveFlags, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cacheBytes := f.cacheMB << 20
	if f.cacheMB < 0 {
		cacheBytes = -1
	}
	var accessLog io.Writer
	if f.accessLogEvery > 0 {
		accessLog = stderr
	}
	s, err := serve.New(serve.Config{
		Addr: f.addr, Workers: f.workers, CacheBytes: cacheBytes,
		JournalDir:       f.journalDir,
		JournalFlushWait: time.Duration(f.journalFlushMS) * time.Millisecond,
		JournalMaxBatch:  f.journalMaxBatch,
		PprofAddr:        f.pprofAddr,
		AccessLog:        accessLog,
		AccessLogEvery:   f.accessLogEvery,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	durable := ""
	if f.journalDir != "" {
		durable = fmt.Sprintf("; journal %s", f.journalDir)
	}
	profiling := ""
	if f.pprofAddr != "" {
		profiling = fmt.Sprintf("; pprof %s", f.pprofAddr)
	}
	fmt.Fprintf(stderr, "gnt: serving on %s (POST /analyze, POST /batch, GET /healthz, GET /readyz, GET /metrics, GET /debug/requests; %d workers%s%s)\n",
		f.addr, s.Engine().Workers(), durable, profiling)
	err = s.ListenAndServe(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// runRoute starts the cluster router (internal/cluster) over the given
// serve nodes and blocks until SIGINT/SIGTERM, then drains: /readyz
// flips to draining first so upstream balancers stop sending, the
// listener stays open for the grace window, then closes gracefully.
func runRoute(addr, nodes string, replicas int, probeMS int64, stderr io.Writer) error {
	var nodeList []string
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	if len(nodeList) == 0 {
		return errors.New("-mode route needs -nodes host:port[,host:port...]")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := cluster.New(cluster.Config{
		Addr:          addr,
		Nodes:         nodeList,
		Replicas:      replicas,
		ProbeInterval: time.Duration(probeMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "gnt: routing on %s over %d nodes (POST /analyze, POST /batch, GET /healthz, GET /readyz, GET /metrics, GET /debug/requests)\n",
		addr, len(nodeList))
	err = r.ListenAndServe(ctx)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// dispatch runs one mode; separated from run so the trace file is
// written after every mode, including the early-returning ones.
func dispatch(mode string, atomic bool, explain string, jsonOut bool, mutateSeed int64,
	prog *ir.Program, cfgRun interp.Config, rec *obs.Recorder, col obs.Collector,
	program string, stdout io.Writer) error {
	if explain != "" {
		a, err := comm.Analyze(context.Background(), prog, col, comm.Opts{})
		if err != nil {
			return err
		}
		if explain == "all" {
			fmt.Fprint(stdout, a.ExplainAll())
			return nil
		}
		node, err := strconv.Atoi(explain)
		if err != nil {
			return fmt.Errorf("-explain wants a node number or \"all\", got %q", explain)
		}
		s, err := a.ExplainNode(node)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, s)
		return nil
	}
	switch mode {
	case "comm":
		a, err := comm.Analyze(context.Background(), prog, col, comm.Opts{})
		if err != nil {
			return err
		}
		opt := comm.DefaultOptions
		if atomic {
			opt.Split = false
		}
		fmt.Fprint(stdout, a.AnnotatedSource(opt))
	case "graph":
		g, err := gt.BuildGraph(prog)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, g.String())
	case "dump":
		a, err := comm.Analyze(context.Background(), prog, col, comm.Opts{})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "universe:")
		fmt.Fprint(stdout, a.Universe.Describe())
		fmt.Fprintln(stdout, "READ problem:")
		fmt.Fprint(stdout, a.Read.Dump(a.ItemNames()))
	case "pre":
		return runPRE(prog, stdout)
	case "prefetch":
		a, err := memopt.Analyze(prog)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, a.AnnotatedSource())
	case "run":
		return runMachine(prog, cfgRun, stdout)
	case "stats":
		return runStats(prog, cfgRun, rec, col, jsonOut, program, stdout)
	case "check":
		return runCheck(prog, col, jsonOut, mutateSeed, program, stdout)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

func readInput(path string, stdin io.Reader) (string, error) {
	if path == "" {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func runPRE(prog *ir.Program, stdout io.Writer) error {
	g, err := cfg.Build(prog)
	if err != nil {
		return err
	}
	p, names := pre.BuildProblem(g)
	fmt.Fprintf(stdout, "expressions: %d\n", len(names))
	for i, nm := range names {
		fmt.Fprintf(stdout, "  e%d: %s\n", i, nm)
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "analysis\tinserts\tweighted\treplaced")
	m := p.Measure(p.LazyCodeMotion())
	fmt.Fprintf(w, "LCM\t%d\t%.0f\t%d\n", m.Inserts, m.Weighted, m.Replaced)
	m = p.Measure(p.MorelRenvoise())
	fmt.Fprintf(w, "Morel-Renvoise\t%d\t%.0f\t%d\n", m.Inserts, m.Weighted, m.Replaced)
	gnt, _, err := p.GiveNTake()
	if err != nil {
		return err
	}
	m = p.Measure(gnt)
	fmt.Fprintf(w, "GIVE-N-TAKE\t%d\t%.0f\t%d\n", m.Inserts, m.Weighted, m.Replaced)
	return w.Flush()
}

// variants builds the three placements compared by -mode run and
// -mode stats, wrapping each annotation in a placement span.
func variants(prog *ir.Program, a *comm.Analysis, col obs.Collector) []struct {
	name string
	p    *ir.Program
} {
	out := make([]struct {
		name string
		p    *ir.Program
	}, 0, 3)
	build := func(name string, f func() *ir.Program) {
		end := obs.Begin(col, obs.SpanPrefixPlacement+name)
		p := f()
		end()
		out = append(out, struct {
			name string
			p    *ir.Program
		}{name, p})
	}
	build("naive", func() *ir.Program {
		return comm.NaiveAnnotate(prog, comm.Options{Reads: true, Writes: true})
	})
	build("gnt-atomic", func() *ir.Program {
		return a.Annotate(comm.Options{Reads: true, Writes: true})
	})
	build("gnt-split", func() *ir.Program { return a.Annotate(comm.DefaultOptions) })
	return out
}

func runMachine(prog *ir.Program, cfgRun interp.Config, stdout io.Writer) error {
	a, err := comm.Analyze(context.Background(), prog, cfgRun.Collector, comm.Opts{})
	if err != nil {
		return err
	}
	rows := variants(prog, a, cfgRun.Collector)
	withFaults := cfgRun.Faults.Enabled()
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	if withFaults {
		fmt.Fprintln(w, "placement\tmsgs\tvolume\tretries\tdegraded\twait(hi)\ttotal(hi)\twait(lo)\ttotal(lo)")
	} else {
		fmt.Fprintln(w, "placement\tmsgs\tvolume\twait(hi)\ttotal(hi)\twait(lo)\ttotal(lo)")
	}
	reports := make([]string, 0, len(rows))
	for _, r := range rows {
		cfgV := cfgRun
		cfgV.SpanName = obs.SpanPrefixExecute + r.name
		tr, err := interp.Run(r.p, cfgV)
		if err != nil {
			return err
		}
		hi := machine.HighLatency.Cost(tr)
		lo := machine.LowLatency.Cost(tr)
		if withFaults {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
				r.name, hi.Messages, hi.Volume, hi.Retries, hi.Degraded,
				hi.Wait, hi.Total, lo.Wait, lo.Total)
			reports = append(reports, fmt.Sprintf("%s: %s", r.name, tr.Faults))
		} else {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
				r.name, hi.Messages, hi.Volume, hi.Wait, hi.Total, lo.Wait, lo.Total)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if withFaults {
		fmt.Fprintln(stdout, "\nfault reports:")
		for _, rep := range reports {
			fmt.Fprintln(stdout, " ", rep)
		}
	}
	return nil
}

// runStats assembles the full observability report: pipeline phases,
// solver counters (with the one-pass invariant checked), per-variant
// runtime statistics with cost-model evaluations, and PRE metrics.
func runStats(prog *ir.Program, cfgRun interp.Config, rec *obs.Recorder, col obs.Collector,
	jsonOut bool, program string, stdout io.Writer) error {
	a, err := comm.Analyze(context.Background(), prog, col, comm.Opts{})
	if err != nil {
		return err
	}
	report := &obs.Report{Program: program, Solver: a.Counters()}
	for _, sc := range report.Solver {
		if err := sc.OnePass(); err != nil {
			return err
		}
	}
	for _, r := range variants(prog, a, col) {
		cfgV := cfgRun
		cfgV.SpanName = obs.SpanPrefixExecute + r.name
		tr, err := interp.Run(r.p, cfgV)
		if err != nil {
			return err
		}
		rs := tr.Stats(r.name)
		rs.Cost = map[string]obs.CostStats{
			"high-latency": machine.HighLatency.Cost(tr).Stats(),
			"low-latency":  machine.LowLatency.Cost(tr).Stats(),
		}
		report.Runtime = append(report.Runtime, rs)
	}
	if extra, err := preMetricsJSON(prog); err == nil && extra != nil {
		report.Extra = map[string]json.RawMessage{"pre": extra}
	}
	if rec != nil {
		report.Phases = rec.Phases()
		report.Counters = rec.Counters()
	}
	if jsonOut {
		b, err := report.JSON()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", b)
		return err
	}
	return report.WriteText(stdout)
}

// runCheck statically re-verifies the solved placement (C1–C3/O1 over
// all paths) and runs the communication linter, printing one line per
// diagnostic plus a summary — or, with -json, the structured result.
// A non-zero -mutate seed first corrupts one RES bit per problem
// (internal/check/mutate), turning the mode into a self-test: the
// verifier is expected to fail and name the violated criterion.
func runCheck(prog *ir.Program, col obs.Collector, jsonOut bool, mutateSeed int64,
	program string, stdout io.Writer) error {
	a, err := comm.Analyze(context.Background(), prog, col, comm.Opts{})
	if err != nil {
		return err
	}
	var mutations []string
	if mutateSeed != 0 {
		r := rand.New(rand.NewSource(mutateSeed))
		for _, p := range a.Problems() {
			if m, _, ok := mutate.Apply(r, p.Sol, p.Universe); ok {
				mutations = append(mutations, p.Name+": "+m.String())
			}
		}
	}
	res := a.CheckPlacement(col)
	if jsonOut {
		out := struct {
			Program     string                 `json:"program"`
			Mutations   []string               `json:"mutations,omitempty"`
			Ok          bool                   `json:"ok"`
			Errors      int                    `json:"errors"`
			Warnings    int                    `json:"warnings"`
			Diagnostics []check.Diagnostic     `json:"diagnostics"`
			Stats       map[string]check.Stats `json:"stats"`
		}{program, mutations, res.Ok(), len(res.Errors()), len(res.Warnings()),
			res.Diagnostics, res.Stats}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	} else {
		for _, m := range mutations {
			fmt.Fprintf(stdout, "mutated %s\n", m)
		}
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		verdict := "ok"
		if !res.Ok() {
			verdict = "FAILED"
		}
		fmt.Fprintf(stdout, "%s: %s (%d errors, %d warnings)\n",
			program, verdict, len(res.Errors()), len(res.Warnings()))
	}
	if !res.Ok() {
		return fmt.Errorf("placement verification failed: %d error(s)", len(res.Errors()))
	}
	return nil
}

// preMetricsJSON renders the three PRE analyses' metrics, or nil when
// the program yields no PRE problem.
func preMetricsJSON(prog *ir.Program) (json.RawMessage, error) {
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	p, names := pre.BuildProblem(g)
	if len(names) == 0 {
		return nil, nil
	}
	gnt, _, err := p.GiveNTake()
	if err != nil {
		return nil, err
	}
	out := map[string]pre.Metrics{
		"lcm":            p.Measure(p.LazyCodeMotion()),
		"morel-renvoise": p.Measure(p.MorelRenvoise()),
		"give-n-take":    p.Measure(gnt),
	}
	return json.Marshal(out)
}
