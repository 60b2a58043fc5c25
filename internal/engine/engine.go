// Package engine is the concurrent analysis engine behind the serving
// path. Its Workers slots are the service's one admission queue
// (Admit), and Analyze runs one program to completion on a calling
// goroutine that holds a slot, through the stages in order (stages.go):
//
//	cfg-build → interval-reduce → section-universe → solve → check
//
// The solve stage solves READ on the forward graph and then WRITE on
// the reversed one, as comm.Analyze does. The check stage runs the
// static verifier once per program through comm.CheckPlacementCtx, the
// same call every other caller makes. Concurrency is across programs,
// never within one. Two mechanisms make the engine production-shaped:
//
//   - bounded concurrency with panic isolation: at most Workers
//     programs run at once, each on one of the engine's slots (Map fans
//     serve's /batch items out over free slots), and a panicking stage
//     body is returned as a structured *PanicError;
//
//   - a content-addressed result cache: rendered response bytes keyed
//     by SHA-256 of source + canonicalized options (CacheKey), bounded
//     in bytes with LRU eviction, with single-flight deduplication so a
//     thundering herd of identical requests costs one analysis.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// Workers is the number of slots: the callers Admit lets in, and
	// so the programs analyzed, at once; zero means GOMAXPROCS.
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

	// slots holds one token per admitted caller and per further Map
	// body; waiting counts the Admit calls blocked on a full slots.
	slots   chan struct{}
	waiting atomic.Int64
	stages  [numStages]pstage
	// shed counts callers that gave up, because their context died,
	// while waiting in Admit or at an Analyze stage boundary.
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
	// Collector receives the job's stage spans, all from the calling
	// goroutine and one after another; nil records nothing.
	Collector obs.Collector
	// PostSolve, when non-nil, runs in the solve stage after both
	// solves succeed and before verification — the hook the
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

// ErrOverloaded is Admit's error when no slot frees within its timeout.
var ErrOverloaded = errors.New("engine: no slot free within the admission timeout")

// Admit waits at most timeout for a slot and returns the func that
// gives it back, to be called once. A dead ctx on entry returns
// ctx.Err(); a timeout returns ErrOverloaded and counts as an admission
// shed; a ctx that dies while waiting returns ctx.Err() and counts as
// shed. Its waiters are the queue depth PipelineStats reports.
func (e *Engine) Admit(ctx context.Context, timeout time.Duration) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case e.slots <- struct{}{}: // a free slot needs no timer, so timeout 0 means "if free now"
	default:
		e.waiting.Add(1)
		defer e.waiting.Add(-1)
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case e.slots <- struct{}{}:
		case <-timer.C:
			e.admitShed.Add(1)
			return nil, ErrOverloaded
		case <-ctx.Done():
			e.shed.Add(1)
			return nil, ctx.Err()
		}
	}
	e.admitWon.Add(1)
	return func() { <-e.slots }, nil
}

// Analyze runs one program through every stage and returns its solved
// placements with their static verification, which the check stage
// computes with comm.CheckPlacementCtx. The caller holds a slot, so it
// waits for nothing and runs the stages in order on this goroutine. A
// ctx dead on entry returns ctx.Err() at once; a ctx that dies before a
// stage begins returns ctx.Err() and counts as shed.
func (e *Engine) Analyze(ctx context.Context, job Job) (*Result, error) {
	defer obs.Begin(job.Collector, obs.SpanEngineAnalyze)()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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

// Map runs f for every index in [0, n), in index-launch order, each
// body on its own goroutine and slot, so it may call Analyze. The
// caller must hold a slot from Admit: the first body runs on it, each
// further one on whichever slot frees first, so Map stays within
// Workers and on one slot runs the bodies in turn instead of
// deadlocking. Once ctx is observed done no
// further body starts (a slot won as it died goes back), and Map
// returns after every launched body has finished. It returns how many
// launched — indices [launched, n) never ran, and the caller owns
// saying so (serve's /batch records ctx.Err() in the trailing slots).
func (e *Engine) Map(ctx context.Context, n int, f func(ctx context.Context, i int)) int {
	own := make(chan struct{}, 1) // the caller's slot: full while a body runs on it
	var wg sync.WaitGroup
	launched := 0
	for ; launched < n; launched++ {
		pool := e.slots
		if launched == 0 {
			pool = nil // the first body runs on the caller's slot
		}
		var slot chan struct{}
		select {
		case <-ctx.Done():
		case own <- struct{}{}:
			slot = own
		case pool <- struct{}{}:
			slot = e.slots
		}
		if ctx.Err() != nil {
			if slot != nil {
				<-slot
			}
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slot }()
			f(ctx, i)
		}(launched)
	}
	wg.Wait()
	return launched
}

// PoolStats is a point-in-time snapshot of the worker count, the stage
// panics, and Admit's won and shed (timed-out) outcomes.
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
	// PipelineShed counts callers that gave up, because their context
	// died, while waiting in Admit or at an Analyze stage boundary.
	PipelineShed int64 `json:"pipeline_shed"`
}

// Stats snapshots the worker, panic, admission, cache, and pipeline
// counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Pipeline:     e.PipelineStats(),
		PipelineShed: e.shed.Load(),
		Pool: PoolStats{
			Workers:       e.cfg.Workers,
			Panics:        e.taskPanics.Load(),
			AdmissionWon:  e.admitWon.Load(),
			AdmissionShed: e.admitShed.Load(),
		},
		Cache: e.cache.snapshot(),
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
		"Engine worker count: the slots Admit lets callers hold at once.",
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
		"Callers waiting in Admit for a slot, on cfg-build; 0 on every other stage.", []string{"stage"},
		perStage(func(st StageStats) int64 { return int64(st.QueueDepth) }))
	reg.GaugeSeriesFunc(obs.MetricPipelineOccupancy,
		"Programs inside each stage right now.", []string{"stage"},
		perStage(func(st StageStats) int64 { return st.Busy }))
}
