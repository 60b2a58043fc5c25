// The stage pipeline, the engine's only scheduler: each program flows
// through the pipeline's obs-named stages (cfg-build → interval-reduce
// → section-universe → solve → check) as an independent task, stages
// connected by bounded queues, each stage served by its own worker
// count. There is NO barrier between stages — program A can be in the
// solve stage while program B is still in cfg-build — so corpus
// throughput is set by the slowest stage's service rate, not by the
// slowest program's end-to-end chain. The READ and WRITE solve
// halves stay concurrent within a program (the solve stage runs them as
// two goroutines); the check stage verifies both on its worker, through
// the same comm.CheckPlacementCtx every other caller uses.
//
// Backpressure is the bounded queues themselves: a stage that cannot
// hand its task downstream blocks on the send (or sheds, if the task's
// own context dies while waiting). Nothing is dropped and nothing is
// unbounded; submitters feel the bottleneck stage's rate directly.
package engine

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"givetake/internal/comm"
	"givetake/internal/ir"
	"givetake/internal/obs"
)

// Stage indices, in flow order.
const (
	stageCFG = iota
	stageIntervals
	stageUniverse
	stageSolve
	stageCheck
	numStages
)

// stageWidths derives each stage's worker count from the engine's
// Workers: the solve and check stages (the hot ones on real corpora)
// get the full count each, the three light front-half stages half
// each, all floored at one. Oversubscription is deliberate: stage
// workers are goroutines gated by GOMAXPROCS, and a stage blocked on
// backpressure costs only a goroutine; starving the bottleneck stage,
// by contrast, caps the whole pipeline's service rate.
func stageWidths(workers int) [numStages]int {
	light, heavy := max(workers/2, 1), max(workers, 1)
	return [numStages]int{
		stageCFG:       light,
		stageIntervals: light,
		stageUniverse:  light,
		stageSolve:     heavy,
		stageCheck:     heavy,
	}
}

// pipeTask is one program traveling the pipeline. Exactly one stage
// owns it at a time (queues hand off ownership), so its fields need no
// locking; done is closed once — by the check stage, or early by
// whichever stage failed or shed it.
type pipeTask struct {
	ctx  context.Context
	col  obs.Collector
	prog *ir.Program
	opts comm.Opts
	// postSolve is Job.PostSolve, run by the solve stage.
	postSolve func(*comm.Analysis)

	res        *Result
	err        error
	endAnalyze obs.EndFunc
	done       chan struct{}
}

// pstage is one stage: its bounded input queue, worker budget, and
// occupancy/throughput accounting (sampled by PipelineStats and the
// gnt_pipeline_* gauges).
type pstage struct {
	name    string // stats/metrics label
	workers int
	in      chan *pipeTask

	busy   atomic.Int64
	items  atomic.Int64
	busyNS atomic.Int64
}

// pipeline owns the stages. Created once per Engine in New; torn down
// by Engine.Close, which closes the cfg-build queue and lets the close
// cascade stage by stage as each one's workers drain and exit.
type pipeline struct {
	eng    *Engine
	stages [numStages]*pstage
	done   sync.WaitGroup
	shed   atomic.Int64

	// delay, when non-nil, runs at the start of every stage body — the
	// test hook the stage-imbalance tests use to make one stage slow.
	delay func(stage string)
}

func newPipeline(e *Engine, widths [numStages]int, queue int) *pipeline {
	p := &pipeline{eng: e}
	names := [numStages]string{
		obs.SpanCFGBuild, obs.SpanIntervalReduce, obs.SpanSectionUniverse,
		"solve", obs.SpanCheck,
	}
	for i, name := range names {
		p.stages[i] = &pstage{
			name:    name,
			workers: widths[i],
			in:      make(chan *pipeTask, queue),
		}
	}
	p.done.Add(numStages)
	for i := range p.stages {
		i, st := i, p.stages[i]
		var wg sync.WaitGroup
		wg.Add(st.workers)
		for w := 0; w < st.workers; w++ {
			go func() {
				defer wg.Done()
				p.work(i, st)
			}()
		}
		go func() {
			wg.Wait()
			if i+1 < numStages {
				close(p.stages[i+1].in)
			}
			p.done.Done()
		}()
	}
	return p
}

// submit enqueues t at stage idx, honoring the task's context; false
// means the task never entered the pipeline (its ctx was already dead,
// or died while waiting for queue space).
func (p *pipeline) submit(idx int, t *pipeTask) bool {
	if t.ctx.Err() != nil {
		return false
	}
	select {
	case p.stages[idx].in <- t:
		return true
	case <-t.ctx.Done():
		return false
	}
}

// work is one stage worker: drain the stage's queue until it closes.
// Every received task is polled for cancellation before any work runs,
// so a dead request sheds here instead of occupying the stage; live
// tasks run the stage body and move downstream, blocking on the next
// queue (backpressure) unless their context dies while they wait.
func (p *pipeline) work(idx int, st *pstage) {
	for t := range st.in {
		if t.err == nil {
			if err := t.ctx.Err(); err != nil {
				t.err = err
				p.shed.Add(1)
			}
		}
		if t.err != nil {
			p.complete(t)
			continue
		}
		start := time.Now()
		st.busy.Add(1)
		p.runStage(idx, t)
		st.busy.Add(-1)
		st.busyNS.Add(time.Since(start).Nanoseconds())
		st.items.Add(1)
		if t.err != nil || idx == numStages-1 {
			p.complete(t)
			continue
		}
		select {
		case p.stages[idx+1].in <- t:
		case <-t.ctx.Done():
			t.err = t.ctx.Err()
			p.shed.Add(1)
			p.complete(t)
		}
	}
}

// complete finishes a task: a failed task surfaces only its error (the
// same contract as Analyze), the engine.analyze span closes, and the
// submitter wakes.
func (p *pipeline) complete(t *pipeTask) {
	if t.err != nil {
		t.res = nil
	}
	if t.endAnalyze != nil {
		t.endAnalyze()
	}
	close(t.done)
}

// recoverTo converts a stage-body panic into a *PanicError on the
// task: one poisoned program degrades, the stage worker survives.
func (p *pipeline) recoverTo(dst *error) {
	if r := recover(); r != nil {
		p.eng.taskPanics.Add(1)
		*dst = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// runStage executes stage idx's body on t, leaving the outcome in
// t.err / t.res.
func (p *pipeline) runStage(idx int, t *pipeTask) {
	defer p.recoverTo(&t.err)
	if p.delay != nil {
		p.delay(p.stages[idx].name)
	}
	switch idx {
	case stageCFG:
		a, err := comm.StageCFG(t.ctx, t.prog, t.col)
		if err != nil {
			t.err = err
			return
		}
		t.res = &Result{Analysis: a}
	case stageIntervals:
		t.err = t.res.Analysis.StageIntervals(t.ctx, t.col)
	case stageUniverse:
		if err := t.res.Analysis.StageUniverse(t.ctx, t.col); err != nil {
			t.err = err
			return
		}
		t.res.Analysis.ApplyOpts(t.opts)
	case stageSolve:
		p.runSolve(t)
	case stageCheck:
		t.res.Check, t.err = t.res.Analysis.CheckPlacementCtx(t.ctx, t.col)
	}
}

// runSolve runs the READ and WRITE solve halves concurrently, so the
// halves' independence (comm.Analyze documents it) keeps paying off per
// program; a READ failure wins over a WRITE failure. Once both join
// without error the job's PostSolve hook runs here, before the task
// moves to check; a panic in it is recovered by runStage like any other
// stage panic.
func (p *pipeline) runSolve(t *pipeTask) {
	a := t.res.Analysis
	writeErr := make(chan error, 1)
	go func() {
		var err error
		defer func() { writeErr <- err }()
		defer p.recoverTo(&err)
		err = a.SolveWrite(t.ctx, t.col, nil)
	}()
	var readErr error
	func() {
		defer p.recoverTo(&readErr)
		readErr = a.SolveRead(t.ctx, t.col, nil)
	}()
	werr := <-writeErr
	if readErr != nil {
		t.err = readErr
		return
	}
	if werr != nil {
		t.err = werr
		return
	}
	if t.postSolve != nil {
		t.postSolve(a)
	}
}

// close begins teardown: no further submissions may race it. The
// cfg-build queue closes here; each stage's close cascades to the next as its
// workers drain and exit, and done.Wait returns once the check stage
// has flushed.
func (p *pipeline) close() {
	close(p.stages[stageCFG].in)
	p.done.Wait()
}

// StageStats is one pipeline stage's point-in-time accounting: queue
// depth and busy workers are live occupancy (what the
// gnt_pipeline_queue_depth and gnt_pipeline_occupancy gauges sample at
// scrape time), items and busy time are cumulative throughput — their
// ratio per worker is the stage's measured service rate, which is what
// the benchmark's pipeline.bottleneck_ratio holds the run's wall time
// against.
type StageStats struct {
	Stage      string  `json:"stage"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	Busy       int64   `json:"busy"`
	Items      int64   `json:"items"`
	BusyMS     float64 `json:"busy_ms"`
}

// PipelineStats snapshots every stage in flow order.
func (e *Engine) PipelineStats() []StageStats {
	out := make([]StageStats, 0, numStages)
	for _, st := range e.pipe.stages {
		out = append(out, StageStats{
			Stage:      st.name,
			Workers:    st.workers,
			QueueDepth: len(st.in),
			Busy:       st.busy.Load(),
			Items:      st.items.Load(),
			BusyMS:     float64(st.busyNS.Load()) / 1e6,
		})
	}
	return out
}
