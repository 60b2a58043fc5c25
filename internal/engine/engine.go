// Package engine is the concurrent analysis engine behind the serving
// path. Analyze runs one program to completion on the calling
// goroutine, through the stages that follow the data dependences of
// the analysis (stages.go):
//
//	cfg-build → interval-reduce → section-universe ─┬─ solve READ  ─┬─ check
//	                                                └─ solve WRITE ─┘
//
// READ runs on the forward graph and WRITE on the reversed one; the two
// share no mutable state (comm.Analyze documents why), so the solve
// stage runs them concurrently. The check stage runs the static
// verifier once per program through comm.CheckPlacementCtx, the same
// call every sequential caller makes. Three mechanisms make the engine
// production-shaped:
//
//   - bounded concurrency with panic isolation: at most Workers
//     programs run at once, each on one of the engine's slots, and a
//     panicking stage body is returned as a structured *PanicError;
//
//   - a content-addressed result cache: rendered response bytes keyed
//     by SHA-256 of source + canonicalized options (CacheKey), bounded
//     in bytes with LRU eviction, with single-flight deduplication so a
//     thundering herd of identical requests costs one analysis;
//
//   - bounded fan-out: Map runs request bodies (serve's /batch items)
//     with bounded concurrency, and concurrent Analyze calls run on
//     separate slots, so corpus throughput scales with cores instead of
//     being pinned to one sequential analysis.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/ir"
	"givetake/internal/journal"
	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// DefaultCacheBytes bounds the result cache when Config.CacheBytes is
// zero.
const DefaultCacheBytes int64 = 32 << 20

// Config parameterizes an Engine.
type Config struct {
	// Workers is the number of programs Analyze runs at once (its
	// slots) and the fan-out bound of Map; zero means GOMAXPROCS.
	Workers int
	// CacheBytes bounds the result cache; zero means DefaultCacheBytes,
	// negative disables caching: the cache has zero capacity, stores
	// nothing, and still counts hits, misses and followers
	// (single-flight still dedups).
	CacheBytes int64
	// Journal, when non-nil, makes cache fills durable: every storable
	// result Do computes is appended for group commit, and
	// WarmFromJournal replays the verified records into the cache at
	// startup. The engine never flushes or closes the journal — its
	// lifecycle (drain on shutdown, abort on crash) belongs to the
	// owner.
	Journal *journal.Journal
}

// Engine runs analyses on a bounded number of slots and serves
// repeated requests from a content-addressed cache. Create with New;
// an Engine is safe for concurrent use and owns no goroutine, so there
// is nothing to stop.
type Engine struct {
	cfg Config

	// slots holds one token per running Analyze; waiting counts the
	// calls blocked on a full slots.
	slots   chan struct{}
	waiting atomic.Int64
	stages  [numStages]pstage
	// shed counts Analyze calls that gave up, because their context
	// died, while waiting for a slot or at a stage boundary.
	shed atomic.Int64

	mu      sync.Mutex
	flights map[string]*flight
	cache   *cache

	taskPanics atomic.Int64
	admitWon   atomic.Int64
	admitShed  atomic.Int64
}

// New builds an Engine with cfg.Workers slots.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	return &Engine{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		flights: map[string]*flight{},
		cache:   newCache(cfg.CacheBytes),
	}
}

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// PanicError is a stage-body panic converted to an error at the
// stage's isolation boundary, so one poisoned request degrades instead
// of killing the process. The serving layer maps it to a "panic" ladder
// outcome.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", p.Value) }

// Job is one analysis to schedule.
type Job struct {
	// Prog is the parsed, checked program.
	Prog *ir.Program
	// Opts tunes the placement analysis (rung 2 of the serve ladder
	// sets SuppressHoist).
	Opts comm.Opts
	// Collector receives the job's stage spans; nil records nothing.
	// It must be safe for concurrent use: the READ and WRITE solve
	// spans come from two goroutines and can overlap in time.
	Collector obs.Collector
	// PostSolve, when non-nil, runs in the solve stage after both
	// solves join without error and before verification — the hook the
	// chaos harness uses to corrupt solutions. A panic inside it is
	// returned as a *PanicError, like any stage panic.
	PostSolve func(*comm.Analysis)
}

// Result is one completed analysis: the solved placements and their
// static verification. It shares no memory with the engine or with
// other jobs; the caller may keep it as long as it likes.
type Result struct {
	Analysis *comm.Analysis
	Check    *check.Result
}

// Analyze runs one program through every stage and returns its solved
// placements with their static verification, which the check stage
// computes with comm.CheckPlacementCtx. It waits for one of the
// engine's Workers slots and then runs the stages in order on the
// calling goroutine. A call whose ctx is dead on entry returns
// ctx.Err() at once; a call whose ctx dies while it waits for a slot,
// or before a stage begins, returns ctx.Err() and counts as shed.
func (e *Engine) Analyze(ctx context.Context, job Job) (*Result, error) {
	defer obs.Begin(job.Collector, obs.SpanEngineAnalyze)()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.waiting.Add(1)
	select {
	case e.slots <- struct{}{}:
		e.waiting.Add(-1)
	case <-ctx.Done():
		e.waiting.Add(-1)
		e.shed.Add(1)
		return nil, ctx.Err()
	}
	defer func() { <-e.slots }()
	res := &Result{}
	for idx := range numStages {
		if err := ctx.Err(); err != nil {
			e.shed.Add(1)
			return nil, err
		}
		if err := e.runStage(ctx, idx, &job, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Map runs f for every index in [0, n) with fan-out bounded by the
// worker count, in index-launch order. Bodies run on dedicated
// goroutines and hold no Analyze slot, so they may themselves call
// Analyze. Cancellation sheds before each launch: once ctx
// is observed done, no further body starts (not even one already
// holding a semaphore slot), and Map returns after every launched body
// has finished. The return value is how many bodies launched — indices
// [launched, n) never ran, and the caller owns saying so in its
// per-item results (serve's /batch records ctx.Err() in the trailing
// slots).
func (e *Engine) Map(ctx context.Context, n int, f func(ctx context.Context, i int)) int {
	sem := make(chan struct{}, e.cfg.Workers)
	var wg sync.WaitGroup
	launched := 0
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		launched++
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f(ctx, i)
		}(i)
	}
	wg.Wait()
	return launched
}

// PoolStats is a point-in-time snapshot of the worker count, the stage
// panics, and the admission accounting the serving layer reports into
// it.
type PoolStats struct {
	Workers       int   `json:"workers"`
	Panics        int64 `json:"panics"`
	AdmissionWon  int64 `json:"admission_won"`
	AdmissionShed int64 `json:"admission_shed"`
}

// Stats is the engine's observable state, rendered by /healthz.
type Stats struct {
	Pool     PoolStats    `json:"pool"`
	Cache    CacheStats   `json:"cache"`
	Pipeline []StageStats `json:"pipeline"`
	// PipelineShed counts Analyze calls that gave up, because their
	// context died, while waiting for a slot or at a stage boundary.
	PipelineShed int64 `json:"pipeline_shed"`
}

// Stats snapshots the worker, panic, admission, cache, and pipeline
// counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Pipeline:     e.PipelineStats(),
		PipelineShed: e.shed.Load(),
		Pool: PoolStats{
			Workers: e.cfg.Workers,
			Panics:  e.taskPanics.Load(),

			AdmissionWon:  e.admitWon.Load(),
			AdmissionShed: e.admitShed.Load(),
		},
		Cache: e.cache.snapshot(),
	}
}

// NoteAdmission records one admission-queue outcome: won (a request got
// an analysis slot) or shed (it timed out of the queue). The serving
// layer calls this so slot accounting lives with the engine stats.
func (e *Engine) NoteAdmission(won bool) {
	if won {
		e.admitWon.Add(1)
	} else {
		e.admitShed.Add(1)
	}
}

// RegisterMetrics installs the engine's /metrics families on reg. Each
// reads Stats or PipelineStats at scrape time (the counters' HELP
// texts are pinned by serve's TestCounterGolden), so /metrics reports the
// same counts /healthz does and no event is counted twice: the worker,
// cache-entry and cache-byte gauges, the per-stage queue-depth and
// occupancy gauges, and the admission, cache-event,
// stage-panic, pipeline-item and pipeline-shed counters.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc(obs.MetricPoolWorkers,
		"Engine worker count: the Analyze slots and the Map fan-out bound.",
		func() float64 { return float64(e.cfg.Workers) })
	reg.GaugeFunc(obs.MetricCacheEntries,
		"Resident result-cache entries.",
		func() float64 { return float64(e.cache.snapshot().Entries) })
	reg.GaugeFunc(obs.MetricCacheBytes,
		"Resident result-cache bytes.",
		func() float64 { return float64(e.cache.snapshot().Bytes) })
	reg.CounterSeriesFunc(obs.MetricAdmissionTotal,
		"Admission-queue outcomes.", []string{"outcome"},
		func() []telemetry.SeriesSample {
			return []telemetry.SeriesSample{
				{LabelVals: []string{"won"}, Value: float64(e.admitWon.Load())},
				{LabelVals: []string{"shed"}, Value: float64(e.admitShed.Load())},
			}
		})
	reg.CounterSeriesFunc(obs.MetricCacheEvents,
		"Result-cache events.", []string{"event"},
		func() []telemetry.SeriesSample {
			cs := e.cache.snapshot()
			return []telemetry.SeriesSample{
				{LabelVals: []string{"hit"}, Value: float64(cs.Hits)},
				{LabelVals: []string{"miss"}, Value: float64(cs.Misses)},
				{LabelVals: []string{"follow"}, Value: float64(cs.Followers)},
				{LabelVals: []string{"evict"}, Value: float64(cs.Evictions)},
			}
		})
	reg.CounterFunc(obs.MetricPoolPanics,
		"Pipeline stage bodies that panicked and were converted to errors.",
		func() float64 { return float64(e.taskPanics.Load()) })
	reg.CounterFunc(obs.MetricPipelineShed,
		"Pipeline tasks shed because their context died in-flight.",
		func() float64 { return float64(e.shed.Load()) })
	perStage := func(field func(StageStats) int64) func() []telemetry.SeriesSample {
		return func() []telemetry.SeriesSample {
			stats := e.PipelineStats()
			out := make([]telemetry.SeriesSample, len(stats))
			for i, st := range stats {
				out[i] = telemetry.SeriesSample{LabelVals: []string{st.Stage}, Value: float64(field(st))}
			}
			return out
		}
	}
	reg.CounterSeriesFunc(obs.MetricPipelineItems,
		"Programs serviced per pipeline stage.", []string{"stage"},
		perStage(func(st StageStats) int64 { return st.Items }))
	reg.GaugeSeriesFunc(obs.MetricPipelineQueueDepth,
		"Analyze calls waiting for a slot, on cfg-build; 0 on every other stage.", []string{"stage"},
		perStage(func(st StageStats) int64 { return int64(st.QueueDepth) }))
	reg.GaugeSeriesFunc(obs.MetricPipelineOccupancy,
		"Programs inside each stage right now.", []string{"stage"},
		perStage(func(st StageStats) int64 { return st.Busy }))
}
