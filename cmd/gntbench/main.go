// Command gntbench runs the GIVE-N-TAKE pipeline over a corpus of
// mini-Fortran programs and writes a machine-readable benchmark
// artifact: per-program phase timings and solver counters. CI runs it
// on the testdata corpus and archives the result (BENCH_obs.json) so
// solver-work regressions show up as artifact diffs.
//
// Usage:
//
//	gntbench [-out BENCH_obs.json] [-timeout 30s] [-parallel N] dir [dir...]
//
// Each directory is walked recursively for *.f files. Every program
// gets a wall-clock budget (-timeout, default 30s); a program that
// exceeds it — or fails to parse, analyze, or verify — is recorded in
// the artifact as a per-entry error instead of hanging or aborting the
// whole corpus, and the run exits nonzero so CI still notices.
//
// With -parallel N the corpus additionally runs through the concurrent
// analysis engine on N workers, twice — a cold pass (every program
// misses the result cache and computes) and a warm pass (every program
// hits) — and the artifact grows a "timing" block comparing serial and
// parallel wall time plus the engine's cache counters. -assert-speedup
// X fails the run when serial/parallel falls below X; CI uses it (with
// tolerance below 1.0) to catch the parallel path regressing to slower
// than serial.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/engine"
	"givetake/internal/journal"
	"givetake/internal/obs"
	"givetake/internal/telemetry"

	gt "givetake"
)

// Schema identifies the artifact layout; bump on incompatible change.
// v2 added the static-verifier pass: a "check" phase span (wall time)
// plus the verifier work profile and finding counts per program.
// v3 added the per-program wall-clock guard: entries may carry an
// "error" field (with no report) instead of failing the whole run.
// v4 added the parallel-engine comparison: a "timing" block (serial vs
// parallel vs warm-cache corpus wall time) and the engine's cache
// counters, present when -parallel is given.
// v5 added the durable-journal comparison: a "journal" block with group
// commit flush latency, replay stats, and cold versus journal-warmed
// restart sweep wall times, present when -parallel is given.
// v6 added the telemetry block: the parallel sweeps run with the
// process metrics bridge attached, the exposition is scraped and
// strictly parsed throughout, and the artifact records the final gauge
// snapshot plus per-stage latency histogram summaries, present when
// -parallel is given.
// v7 added the pipeline block: the corpus streams through the engine's
// stage pipeline as one barrier-free batch, and the artifact records
// per-stage throughput plus the ratio of achieved corpus throughput to
// the slowest stage's service rate, present when -parallel is given.
const Schema = "gnt-bench/v7"

// DefaultTimeout is the per-program wall-clock budget.
const DefaultTimeout = 30 * time.Second

type artifact struct {
	Schema string  `json:"schema"`
	Corpus []entry `json:"corpus"`
	// Timing compares one serial corpus sweep against the engine's
	// parallel sweep (cold: all cache misses) and a repeat sweep (warm:
	// all cache hits). Speedup is serial over parallel cold wall time.
	Timing *timing `json:"timing,omitempty"`
	// Cache is the engine's cache counter snapshot after both sweeps;
	// with a single cold+warm cycle the hit rate lands at 0.5.
	Cache *engine.CacheStats `json:"cache,omitempty"`
	// Journal compares a cold restart against a journal-warmed restart:
	// an engine fills a journal, "dies", and a fresh engine replays the
	// log into its cache before sweeping again.
	Journal *journalBench `json:"journal,omitempty"`
	// Obs is the telemetry scrape of the parallel sweeps: gauge
	// snapshots and per-stage latency summaries from the same metrics
	// registry gnt -mode serve exposes at /metrics.
	Obs *obsBench `json:"obs,omitempty"`
	// Pipeline is the stage-pipeline sweep: the corpus as one
	// barrier-free batch, measured against the slowest stage's service
	// rate.
	Pipeline *pipelineBench `json:"pipeline,omitempty"`
}

// pipelineBench is the stage-pipeline block of the artifact. The sweep
// streams Items programs through AnalyzeBatch; IdealWallMS is the
// bottleneck bound — the largest per-stage busy-time-per-worker, i.e.
// how long the slowest stage alone needs to service the batch — and
// Ratio is IdealWallMS over the measured wall: 1.0 means throughput
// exactly tracks the slowest stage's service rate, lower means barrier
// or handoff overhead the pipeline design is supposed to avoid.
type pipelineBench struct {
	Items       int                 `json:"items"`
	WallMS      float64             `json:"wall_ms"`
	IdealWallMS float64             `json:"ideal_wall_ms"`
	Ratio       float64             `json:"ratio"`
	Shed        int64               `json:"shed"`
	Stages      []engine.StageStats `json:"stages"`
}

// obsBench is the telemetry block of the artifact. The parallel
// sweeps' engine reports through a telemetry.Bridge, a background
// scraper renders and strictly parses the exposition while the sweeps
// run (a malformed document fails the bench), and the final scrape is
// summarized here.
type obsBench struct {
	// Scrapes counts the strict mid-sweep parses, final scrape included.
	Scrapes int `json:"scrapes"`
	// Gauges is the final scrape's gauge value per family.
	Gauges map[string]float64 `json:"gauges"`
	// Stages summarizes gnt_stage_duration_seconds per stage label.
	Stages map[string]stageSummary `json:"stages"`
}

// stageSummary condenses one stage's latency histogram.
type stageSummary struct {
	Count  float64 `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// journalBench is the durable-journal block of the artifact.
type journalBench struct {
	// Flush latency of the journal's group commits during the fill
	// sweep, and what they sealed.
	FlushLastMS   float64 `json:"flush_last_ms"`
	FlushMaxMS    float64 `json:"flush_max_ms"`
	SealedBatches int64   `json:"sealed_batches"`
	SealedRecords int64   `json:"sealed_records"`
	SealedBytes   int64   `json:"sealed_bytes"`
	// Replay is the restarted engine's replay accounting (records
	// delivered, corruption skipped, wall time).
	Replay journal.ReplayStats `json:"replay"`
	// ColdWallMS is the fill sweep (every program computes and
	// journals); WarmRestartWallMS is the same sweep on the restarted,
	// replay-warmed engine (every program hits). RestartSpeedup is
	// their ratio: what the journal buys a restarted node.
	ColdWallMS        float64 `json:"cold_wall_ms"`
	WarmRestartWallMS float64 `json:"warm_restart_wall_ms"`
	RestartSpeedup    float64 `json:"restart_speedup"`
}

type timing struct {
	Parallel       int     `json:"parallel"`
	SerialWallMS   float64 `json:"serial_wall_ms"`
	ParallelWallMS float64 `json:"parallel_wall_ms"`
	WarmWallMS     float64 `json:"warm_wall_ms"`
	Speedup        float64 `json:"speedup"`
}

type entry struct {
	File   string      `json:"file"`
	Report *obs.Report `json:"report,omitempty"`
	// Error records why this program produced no report (timeout,
	// parse/analysis failure, verification failure).
	Error string `json:"error,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_obs.json", "output file (\"-\" for stdout)")
	timeout := flag.Duration("timeout", DefaultTimeout, "per-program wall-clock budget")
	parallel := flag.Int("parallel", 0, "also sweep the corpus through the engine on N workers (0 = serial only)")
	assertSpeedup := flag.Float64("assert-speedup", 0, "fail unless serial/parallel wall time >= this (0 = no assertion)")
	assertPipeline := flag.Float64("assert-pipeline", 0, "fail unless pipeline throughput / slowest-stage service rate >= this (0 = no assertion)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "gntbench: no corpus directories given")
		os.Exit(2)
	}
	if err := run(flag.Args(), *out, *timeout, *parallel, *assertSpeedup, *assertPipeline); err != nil {
		fmt.Fprintln(os.Stderr, "gntbench:", err)
		os.Exit(1)
	}
}

func run(dirs []string, out string, timeout time.Duration, parallel int, assertSpeedup, assertPipeline float64) error {
	files, err := collect(dirs)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no .f files under %v", dirs)
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	art := artifact{Schema: Schema}
	failed := 0
	serialStart := time.Now()
	for _, file := range files {
		rep, err := benchGuarded(file, timeout)
		e := entry{File: filepath.ToSlash(file), Report: rep}
		if err != nil {
			e.Error = err.Error()
			e.Report = nil
			failed++
			fmt.Fprintf(os.Stderr, "gntbench: %s: %v\n", file, err)
		}
		art.Corpus = append(art.Corpus, e)
	}
	serialWall := time.Since(serialStart)

	if parallel > 0 {
		tm, cs, ob, err := benchParallel(files, parallel, timeout, serialWall)
		if err != nil {
			return err
		}
		art.Timing, art.Cache, art.Obs = tm, cs, ob
		if assertSpeedup > 0 && tm.Speedup < assertSpeedup {
			return fmt.Errorf("parallel sweep too slow: speedup %.2f < required %.2f (serial %.1fms, parallel %.1fms)",
				tm.Speedup, assertSpeedup, tm.SerialWallMS, tm.ParallelWallMS)
		}
		jb, err := benchJournal(files, parallel, timeout)
		if err != nil {
			return err
		}
		art.Journal = jb
		pb, err := benchPipeline(files, parallel, timeout)
		if err != nil {
			return err
		}
		art.Pipeline = pb
		if assertPipeline > 0 && pb.Ratio < assertPipeline {
			return fmt.Errorf("pipeline sweep off the bottleneck bound: ratio %.2f < required %.2f (wall %.1fms, ideal %.1fms)",
				pb.Ratio, assertPipeline, pb.WallMS, pb.IdealWallMS)
		}
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "-" {
		if _, err = os.Stdout.Write(b); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d corpus entries failed (errors recorded in artifact)",
			failed, len(files))
	}
	return nil
}

// benchGuarded runs one program under a wall-clock budget. The pipeline
// is cooperatively cancellable, so a timeout both returns promptly here
// and actually stops the work; the select is the backstop for any
// future non-cooperative stage.
func benchGuarded(file string, timeout time.Duration) (*obs.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	type result struct {
		rep *obs.Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		rep, err := bench(ctx, file)
		ch <- result{rep, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("timeout after %v: %w", timeout, r.err)
		}
		return r.rep, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("timeout after %v (stage did not cancel)", timeout)
	}
}

// collect walks the directories for .f programs, sorted for stable
// artifact ordering.
func collect(dirs []string) ([]string, error) {
	var files []string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".f") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// bench runs the analysis pipeline once on a program, recording phase
// spans and solver counters, then statically re-verifies the placement.
// One-pass violations and verification errors fail the run: the
// artifact must never archive counters that break the O(E) claim, nor a
// corpus the verifier rejects.
func bench(ctx context.Context, file string) (*obs.Report, error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	prog, err := gt.Parse(string(src))
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder(obs.Config{Mem: true})
	a, err := comm.Analyze(ctx, prog, rec, comm.Opts{})
	if err != nil {
		return nil, err
	}
	res, err := a.CheckPlacementCtx(ctx, rec)
	if err != nil {
		return nil, err
	}
	if !res.Ok() {
		return nil, fmt.Errorf("placement verification failed: %s", res.Errors()[0])
	}
	rep := &obs.Report{
		Program: filepath.ToSlash(file),
		Solver:  a.Counters(),
		Phases:  rec.Phases(),
	}
	for _, sc := range rep.Solver {
		if err := sc.OnePass(); err != nil {
			return nil, err
		}
	}
	checkExtra, err := json.Marshal(struct {
		Errors   int                    `json:"errors"`
		Warnings int                    `json:"warnings"`
		Stats    map[string]check.Stats `json:"stats"`
	}{len(res.Errors()), len(res.Warnings()), res.Stats})
	if err != nil {
		return nil, err
	}
	rep.Extra = map[string]json.RawMessage{"check": checkExtra}
	return rep, nil
}

// benchParallel sweeps the corpus through the concurrent engine twice:
// a cold pass where every program misses the result cache and runs the
// task-parallel pipeline (READ and WRITE halves solving concurrently,
// fan-out bounded by the worker count), then a warm pass where every
// program is served stored bytes. Any per-program failure fails the
// sweep — the serial pass already proved the corpus analyzes, so a
// parallel-only failure is an engine bug, not a corpus problem.
//
// The engine runs with the same telemetry bridge gnt -mode serve uses,
// and a background scraper renders and strictly parses the exposition
// throughout both sweeps; the final scrape becomes the artifact's obs
// block.
func benchParallel(files []string, workers int, timeout time.Duration, serialWall time.Duration) (*timing, *engine.CacheStats, *obsBench, error) {
	reg := telemetry.NewRegistry()
	bridge := telemetry.NewBridge(reg)
	e := engine.New(engine.Config{Workers: workers, Collector: bridge})
	defer e.Close()
	reg.GaugeFunc(obs.MetricPoolWorkers,
		"Engine worker count, which sizes the stage pipeline.",
		func() float64 { return float64(e.Workers()) })
	reg.GaugeFunc(obs.MetricCacheEntries,
		"Resident result-cache entries.",
		func() float64 { return float64(e.Stats().Cache.Entries) })
	reg.GaugeFunc(obs.MetricCacheBytes,
		"Resident result-cache bytes.",
		func() float64 { return float64(e.Stats().Cache.Bytes) })
	ctx, cancel := context.WithTimeout(context.Background(), timeout*time.Duration(len(files)))
	defer cancel()

	sources, err := readSources(files)
	if err != nil {
		return nil, nil, nil, err
	}

	stop := make(chan struct{})
	type scraperReport struct {
		scrapes int
		err     error
	}
	scraperDone := make(chan scraperReport, 1)
	go func() {
		rep := scraperReport{}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if _, err := scrapeRegistry(reg); err != nil {
				rep.err = err
				scraperDone <- rep
				return
			}
			rep.scrapes++
			select {
			case <-stop:
				scraperDone <- rep
				return
			case <-tick.C:
			}
		}
	}()

	coldWall, err := sweepEngine(ctx, e, files, sources, bridge)
	if err != nil {
		close(stop)
		return nil, nil, nil, fmt.Errorf("parallel cold sweep: %w", err)
	}
	warmWall, err := sweepEngine(ctx, e, files, sources, bridge)
	close(stop)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parallel warm sweep: %w", err)
	}
	srep := <-scraperDone
	if srep.err != nil {
		return nil, nil, nil, fmt.Errorf("mid-sweep telemetry scrape: %w", srep.err)
	}
	fams, err := scrapeRegistry(reg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("final telemetry scrape: %w", err)
	}
	ob := buildObsBench(fams, srep.scrapes+1)

	cs := e.Stats().Cache
	tm := &timing{
		Parallel:       e.Workers(),
		SerialWallMS:   float64(serialWall.Microseconds()) / 1000,
		ParallelWallMS: float64(coldWall.Microseconds()) / 1000,
		WarmWallMS:     float64(warmWall.Microseconds()) / 1000,
	}
	if coldWall > 0 {
		tm.Speedup = float64(serialWall) / float64(coldWall)
	}
	if cs.Hits != int64(len(files)) || cs.Misses != int64(len(files)) {
		return nil, nil, nil, fmt.Errorf("cache counters off: %d hits %d misses, want %d each (single-flight or keying bug)",
			cs.Hits, cs.Misses, len(files))
	}
	if hits := fams.Sum(obs.MetricCacheEvents, map[string]string{"event": "hit"}); hits != float64(cs.Hits) {
		return nil, nil, nil, fmt.Errorf("telemetry cache-hit counter %v disagrees with engine stats %d",
			hits, cs.Hits)
	}
	return tm, &cs, ob, nil
}

// scrapeRegistry renders the registry's exposition and runs it through
// the same strict parser the serve tests and CI smoke use — gntbench
// doubles as a continuous format check on the metrics encoder.
func scrapeRegistry(reg *telemetry.Registry) (telemetry.Families, error) {
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(&buf)
}

// buildObsBench condenses one parsed exposition into the artifact's
// obs block: every gauge family's value, and count/sum/mean per stage
// of the stage-latency histogram.
func buildObsBench(fams telemetry.Families, scrapes int) *obsBench {
	ob := &obsBench{
		Scrapes: scrapes,
		Gauges:  map[string]float64{},
		Stages:  map[string]stageSummary{},
	}
	for name, f := range fams {
		if f.Type == "gauge" {
			ob.Gauges[name] = fams.Sum(name, nil)
		}
	}
	counts := map[string]float64{}
	sums := map[string]float64{}
	if f := fams[obs.MetricStageDuration]; f != nil {
		for _, s := range f.Samples {
			stage := s.Labels["stage"]
			switch {
			case strings.HasSuffix(s.Name, "_count"):
				counts[stage] += s.Value
			case strings.HasSuffix(s.Name, "_sum"):
				sums[stage] += s.Value
			}
		}
	}
	for stage, c := range counts {
		sm := stageSummary{Count: c, SumMS: sums[stage] * 1000}
		if c > 0 {
			sm.MeanMS = sm.SumMS / c
		}
		ob.Stages[stage] = sm
	}
	return ob
}

// readSources loads the corpus files once for the engine sweeps.
func readSources(files []string) ([]string, error) {
	sources := make([]string, len(files))
	for i, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		sources[i] = string(b)
	}
	return sources, nil
}

// sweepEngine runs the whole corpus through e's cache-fronted pipeline
// once, with fan-out bounded by the worker count, and returns the
// sweep's wall time. Any per-program failure fails the sweep. col (may
// be nil) receives each job's pipeline stage spans.
func sweepEngine(ctx context.Context, e *engine.Engine, files, sources []string, col obs.Collector) (time.Duration, error) {
	errs := make([]error, len(files))
	start := time.Now()
	e.Map(ctx, len(files), func(ctx context.Context, i int) {
		key := engine.CacheKey(sources[i], comm.Opts{})
		_, _, err := e.Do(ctx, key, func(ctx context.Context) (engine.Cached, bool, error) {
			prog, err := gt.Parse(sources[i])
			if err != nil {
				return engine.Cached{}, false, err
			}
			res, err := e.Analyze(ctx, engine.Job{Prog: prog, Collector: col})
			if err != nil {
				return engine.Cached{}, false, err
			}
			defer res.Release()
			if !res.Check.Ok() {
				return engine.Cached{}, false, fmt.Errorf("verification failed: %s", res.Check.Errors()[0])
			}
			body, err := json.Marshal(struct {
				Annotated string `json:"annotated"`
				Warnings  int    `json:"warnings"`
			}{res.Analysis.AnnotatedSource(comm.DefaultOptions), len(res.Check.Warnings())})
			if err != nil {
				return engine.Cached{}, false, err
			}
			return engine.Cached{Status: 200, Body: body}, true, nil
		})
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("%s: %w", files[i], err)
		}
	}
	return time.Since(start), nil
}

// benchJournal measures what the durable journal buys a restarted node:
// engine 1 sweeps the corpus cold, filling a journal as it goes, and
// shuts down gracefully; engine 2 opens the same storage, replays the
// log into its cache, and sweeps again — every program a hit, no
// analysis recomputed. The block records group-commit flush latency,
// replay accounting, and the two sweeps' wall times.
func benchJournal(files []string, workers int, timeout time.Duration) (*journalBench, error) {
	sources, err := readSources(files)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout*time.Duration(len(files)))
	defer cancel()

	mb := journal.NewMemBackend()
	j1, err := journal.Open(journal.Config{Backend: mb})
	if err != nil {
		return nil, err
	}
	e1 := engine.New(engine.Config{Workers: workers, Journal: j1})
	coldWall, err := sweepEngine(ctx, e1, files, sources, nil)
	e1.Close()
	if err != nil {
		j1.Abort()
		return nil, fmt.Errorf("journal fill sweep: %w", err)
	}
	if err := j1.Close(); err != nil { // graceful drain: seal the tail
		return nil, fmt.Errorf("journal drain: %w", err)
	}
	jstats := j1.Stats()

	j2, err := journal.Open(journal.Config{Backend: mb})
	if err != nil {
		return nil, err
	}
	defer j2.Close()
	e2 := engine.New(engine.Config{Workers: workers, Journal: j2})
	defer e2.Close()
	rs, err := e2.WarmFromJournal(ctx)
	if err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if rs.Records != int64(len(files)) || rs.Corrupt() {
		return nil, fmt.Errorf("replay delivered %d records with %d corrupt batches, want %d clean (stats %+v)",
			rs.Records, rs.CorruptBatches, len(files), rs)
	}
	warmWall, err := sweepEngine(ctx, e2, files, sources, nil)
	if err != nil {
		return nil, fmt.Errorf("journal-warmed sweep: %w", err)
	}
	if cs := e2.Stats().Cache; cs.Hits != int64(len(files)) || cs.Misses != 0 {
		return nil, fmt.Errorf("journal-warmed sweep recomputed: %d hits %d misses, want %d/0",
			cs.Hits, cs.Misses, len(files))
	}

	jb := &journalBench{
		FlushLastMS:       jstats.LastFlushMS,
		FlushMaxMS:        jstats.MaxFlushMS,
		SealedBatches:     jstats.SealedBatches,
		SealedRecords:     jstats.SealedRecords,
		SealedBytes:       jstats.SealedBytes,
		Replay:            rs,
		ColdWallMS:        float64(coldWall.Microseconds()) / 1000,
		WarmRestartWallMS: float64(warmWall.Microseconds()) / 1000,
	}
	if warmWall > 0 {
		jb.RestartSpeedup = float64(coldWall) / float64(warmWall)
	}
	return jb, nil
}

// registerPipelineGauges installs the same scrape-time pipeline gauges
// gnt -mode serve exposes, reading the engine's live per-stage stats.
func registerPipelineGauges(reg *telemetry.Registry, e *engine.Engine) {
	sample := func(field func(engine.StageStats) float64) func() []telemetry.GaugeSample {
		return func() []telemetry.GaugeSample {
			stats := e.PipelineStats()
			out := make([]telemetry.GaugeSample, 0, len(stats))
			for _, st := range stats {
				out = append(out, telemetry.GaugeSample{
					LabelVals: []string{st.Stage},
					Value:     field(st),
				})
			}
			return out
		}
	}
	reg.GaugeSeriesFunc(obs.MetricPipelineQueueDepth,
		"Tasks waiting in each pipeline stage's bounded input queue.",
		[]string{"stage"}, sample(func(st engine.StageStats) float64 { return float64(st.QueueDepth) }))
	reg.GaugeSeriesFunc(obs.MetricPipelineOccupancy,
		"Pipeline stage workers executing a task right now.",
		[]string{"stage"}, sample(func(st engine.StageStats) float64 { return float64(st.Busy) }))
	reg.GaugeSeriesFunc(obs.MetricPipelineWorkers,
		"Configured worker count of each pipeline stage.",
		[]string{"stage"}, sample(func(st engine.StageStats) float64 { return float64(st.Workers) }))
}

// benchPipeline streams the corpus (repeated to amortize pipeline
// ramp-up) through the engine's stage pipeline as one barrier-free
// batch and measures corpus throughput against the slowest stage's
// service rate. The telemetry bridge and the pipeline gauges are
// attached and strictly scraped throughout, and the sweep fails if any
// gnt_pipeline_* family is missing from the final exposition or the
// per-stage item counters disagree with the batch size.
func benchPipeline(files []string, workers int, timeout time.Duration) (*pipelineBench, error) {
	sources, err := readSources(files)
	if err != nil {
		return nil, err
	}
	rounds := 216 / len(files)
	if rounds < 1 {
		rounds = 1
	}
	items := make([]engine.BatchItem, 0, rounds*len(files))
	for r := 0; r < rounds; r++ {
		for _, src := range sources {
			items = append(items, engine.BatchItem{Source: src})
		}
	}

	reg := telemetry.NewRegistry()
	bridge := telemetry.NewBridge(reg)
	e := engine.New(engine.Config{Workers: workers, Collector: bridge})
	defer e.Close()
	registerPipelineGauges(reg, e)

	ctx, cancel := context.WithTimeout(context.Background(), timeout*time.Duration(len(files)))
	defer cancel()

	stop := make(chan struct{})
	type scraperReport struct {
		scrapes int
		err     error
	}
	scraperDone := make(chan scraperReport, 1)
	go func() {
		rep := scraperReport{}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if _, err := scrapeRegistry(reg); err != nil {
				rep.err = err
				scraperDone <- rep
				return
			}
			rep.scrapes++
			select {
			case <-stop:
				scraperDone <- rep
				return
			case <-tick.C:
			}
		}
	}()

	start := time.Now()
	out := e.AnalyzeBatch(ctx, items, bridge)
	wall := time.Since(start)
	close(stop)
	for i, r := range out {
		if r.Err != nil {
			return nil, fmt.Errorf("pipeline sweep item %d (%s): %w", i, files[i%len(files)], r.Err)
		}
		if !r.Res.Check.Ok() {
			r.Res.Release()
			return nil, fmt.Errorf("pipeline sweep item %d (%s): verification failed", i, files[i%len(files)])
		}
		r.Res.Release()
	}
	srep := <-scraperDone
	if srep.err != nil {
		return nil, fmt.Errorf("mid-sweep telemetry scrape: %w", srep.err)
	}
	fams, err := scrapeRegistry(reg)
	if err != nil {
		return nil, fmt.Errorf("final telemetry scrape: %w", err)
	}
	for _, name := range []string{
		obs.MetricPipelineItems, obs.MetricPipelineShed,
		obs.MetricPipelineQueueDepth, obs.MetricPipelineOccupancy,
		obs.MetricPipelineWorkers,
	} {
		if fams[name] == nil {
			return nil, fmt.Errorf("pipeline family %s missing from exposition", name)
		}
	}

	stages := e.PipelineStats()
	if got, want := fams.Sum(obs.MetricPipelineItems, nil), float64(len(items)*len(stages)); got != want {
		return nil, fmt.Errorf("%s sums to %v, want %v (items x stages)",
			obs.MetricPipelineItems, got, want)
	}
	pb := &pipelineBench{
		Items:  len(items),
		WallMS: float64(wall.Microseconds()) / 1000,
		Shed:   e.PipelineShed(),
		Stages: stages,
	}
	for _, st := range stages {
		if st.Items != int64(len(items)) {
			return nil, fmt.Errorf("stage %s serviced %d items, want %d", st.Stage, st.Items, len(items))
		}
		if per := st.BusyMS / float64(st.Workers); per > pb.IdealWallMS {
			pb.IdealWallMS = per
		}
	}
	if pb.WallMS > 0 {
		pb.Ratio = pb.IdealWallMS / pb.WallMS
	}
	return pb, nil
}
