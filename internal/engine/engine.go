// Package engine is the concurrent analysis engine behind the serving
// path. Every program travels one stage pipeline (pipeline.go), whose
// stages follow the data dependences of the analysis:
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
//   - bounded stages with panic isolation: each stage has its own
//     workers and a bounded input queue, a panicking stage body is
//     returned as a structured *PanicError, and per-task bit-vector
//     slabs are carved from leased bitset.Arena buffers so steady-state
//     allocation stays flat across requests;
//
//   - a content-addressed result cache: rendered response bytes keyed
//     by SHA-256 of source + canonicalized options (CacheKey), bounded
//     in bytes with LRU eviction, with single-flight deduplication so a
//     thundering herd of identical requests costs one analysis;
//
//   - bounded fan-out: Map runs request bodies (serve's /batch items)
//     with bounded concurrency, and concurrent Analyze calls overlap
//     stage-wise, so corpus throughput scales with cores instead of
//     being pinned to one sequential pipeline.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"givetake/internal/bitset"
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
	// Workers sizes the stage pipeline — the solve and check stages get
	// Workers workers each, the three front-half stages Workers/2 (at
	// least one), and every inter-stage queue holds max(4, 2*Workers)
	// tasks — and bounds the fan-out of Map; zero means GOMAXPROCS.
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

// Engine schedules analyses on its stage pipeline and serves repeated
// requests from a content-addressed cache. Create with New; an Engine
// is safe for concurrent use and runs until Close.
type Engine struct {
	cfg    Config
	arenas sync.Pool
	pipe   *pipeline

	mu      sync.Mutex
	flights map[string]*flight
	cache   *cache

	taskPanics atomic.Int64
	admitWon   atomic.Int64
	admitShed  atomic.Int64
	closed     atomic.Bool
}

// New builds an Engine and starts its stage pipeline, with stage widths
// and queue bounds derived from cfg.Workers.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return newEngine(cfg, stageWidths(cfg.Workers), max(4, 2*cfg.Workers))
}

// newEngine is New with explicit per-stage worker counts and an explicit
// inter-stage queue bound; cfg.Workers must be positive.
func newEngine(cfg Config, widths [numStages]int, queue int) *Engine {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	e := &Engine{
		cfg:     cfg,
		flights: map[string]*flight{},
		cache:   newCache(cfg.CacheBytes),
	}
	e.arenas.New = func() any { return new(bitset.Arena) }
	e.pipe = newPipeline(e, widths, queue)
	return e
}

// Close stops the stage pipeline after draining queued tasks. Only
// useful in tests; a serving engine lives for the process.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) {
		e.pipe.close()
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
// merged static verification. Its solutions alias arena memory leased
// from the engine — call Release when done with Analysis (typically
// after rendering a response) to return the slabs; using Analysis
// after Release is a data race with the next request.
type Result struct {
	Analysis *comm.Analysis
	Check    *check.Result

	eng      *Engine
	arenas   []*bitset.Arena
	released bool
}

// Release returns the result's arenas to the engine pool. Idempotent;
// nil-safe.
func (r *Result) Release() {
	if r == nil || r.released || r.eng == nil {
		return
	}
	r.released = true
	for _, ar := range r.arenas {
		ar.Reset()
		r.eng.arenas.Put(ar)
	}
	r.arenas = nil
}

// Analyze runs one program through the stage pipeline and returns its
// solved placements with their static verification, which the check
// stage computes with comm.CheckPlacementCtx. Concurrent Analyze calls
// overlap stage-wise.
func (e *Engine) Analyze(ctx context.Context, job Job) (*Result, error) {
	t := &pipeTask{
		ctx:       ctx,
		col:       job.Collector,
		prog:      job.Prog,
		opts:      job.Opts,
		postSolve: job.PostSolve,
		done:      make(chan struct{}),
	}
	t.endAnalyze = obs.Begin(job.Collector, obs.SpanEngineAnalyze)
	if !e.pipe.submit(stageCFG, t) {
		t.endAnalyze()
		return nil, ctx.Err()
	}
	<-t.done
	return t.res, t.err
}

// Map runs f for every index in [0, n) with fan-out bounded by the
// worker count, in index-launch order. Bodies run on dedicated
// goroutines, not stage workers, so they may themselves submit to the
// pipeline (Analyze). Cancellation sheds before each launch: once ctx
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
	// PipelineShed counts tasks that left the stage pipeline because
	// their context died in-flight.
	PipelineShed int64 `json:"pipeline_shed"`
}

// Stats snapshots the worker, panic, admission, cache, and pipeline
// counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Pipeline:     e.PipelineStats(),
		PipelineShed: e.pipe.shed.Load(),
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
// reads Stats or PipelineStats at scrape time, so /metrics reports the
// same counts /healthz does and no event is counted twice: the worker,
// cache-entry and cache-byte gauges, the per-stage queue-depth,
// occupancy and worker gauges, and the admission, cache-event,
// stage-panic, pipeline-item and pipeline-shed counters.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc(obs.MetricPoolWorkers,
		"Engine worker count, which sizes the stage pipeline.",
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
		func() float64 { return float64(e.pipe.shed.Load()) })
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
		"Tasks waiting in each pipeline stage's bounded input queue.", []string{"stage"},
		perStage(func(st StageStats) int64 { return int64(st.QueueDepth) }))
	reg.GaugeSeriesFunc(obs.MetricPipelineOccupancy,
		"Pipeline stage workers executing a task right now.", []string{"stage"},
		perStage(func(st StageStats) int64 { return st.Busy }))
	reg.GaugeSeriesFunc(obs.MetricPipelineWorkers,
		"Configured worker count of each pipeline stage.", []string{"stage"},
		perStage(func(st StageStats) int64 { return int64(st.Workers) }))
}
