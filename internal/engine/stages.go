// The stages of one analysis, in the order Analyze runs them on the
// calling goroutine: cfg-build → interval-reduce → section-universe →
// solve → check. Each stage is one call into comm and keeps its own
// accounting (items, busy, busy time), which PipelineStats, /healthz
// and the gnt_pipeline_* families report. The READ and WRITE solve
// halves run concurrently within a program (the solve stage runs them
// as two goroutines); the check stage verifies both through the same
// comm.CheckPlacementCtx every other caller uses.
package engine

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"time"

	"givetake/internal/comm"
	"givetake/internal/obs"
)

// Stage indices, in run order.
const (
	stageCFG = iota
	stageIntervals
	stageUniverse
	stageSolve
	stageCheck
	numStages
)

// stageNames are the stats and metrics labels of the stages.
var stageNames = [numStages]string{
	obs.SpanCFGBuild, obs.SpanIntervalReduce, obs.SpanSectionUniverse,
	"solve", obs.SpanCheck,
}

// pstage is one stage's occupancy and throughput accounting, sampled
// by PipelineStats and the gnt_pipeline_* families.
type pstage struct {
	busy   atomic.Int64
	items  atomic.Int64
	busyNS atomic.Int64
}

// recoverTo converts a stage-body panic into a *PanicError: one
// poisoned program degrades, the engine and its caller survive.
func (e *Engine) recoverTo(dst *error) {
	if r := recover(); r != nil {
		e.taskPanics.Add(1)
		*dst = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// runStage executes stage idx's body for job, filling res, and
// accounts it as one item of that stage whatever the outcome.
func (e *Engine) runStage(ctx context.Context, idx int, job *Job, res *Result) (err error) {
	st := &e.stages[idx]
	start := time.Now()
	st.busy.Add(1)
	defer func() {
		st.busy.Add(-1)
		st.busyNS.Add(time.Since(start).Nanoseconds())
		st.items.Add(1)
	}()
	defer e.recoverTo(&err)
	a := res.Analysis
	switch idx {
	case stageCFG:
		res.Analysis, err = comm.StageCFG(ctx, job.Prog, job.Collector)
	case stageIntervals:
		err = a.StageIntervals(ctx, job.Collector)
	case stageUniverse:
		if err = a.StageUniverse(ctx, job.Collector); err == nil {
			a.ApplyOpts(job.Opts)
		}
	case stageSolve:
		err = e.runSolve(ctx, job, a)
	case stageCheck:
		res.Check, err = a.CheckPlacementCtx(ctx, job.Collector)
	}
	return err
}

// runSolve runs the READ and WRITE solve halves concurrently, so the
// halves' independence (comm.Analyze documents it) keeps paying off per
// program; a READ failure wins over a WRITE failure. Once both join
// without error the job's PostSolve hook runs here, before check; a
// panic in it is recovered by runStage like any other stage panic.
func (e *Engine) runSolve(ctx context.Context, job *Job, a *comm.Analysis) error {
	writeErr := make(chan error, 1)
	go func() {
		var err error
		defer func() { writeErr <- err }()
		defer e.recoverTo(&err)
		err = a.SolveWrite(ctx, job.Collector, nil)
	}()
	var readErr error
	func() {
		defer e.recoverTo(&readErr)
		readErr = a.SolveRead(ctx, job.Collector, nil)
	}()
	werr := <-writeErr
	if readErr != nil {
		return readErr
	}
	if werr != nil {
		return werr
	}
	if job.PostSolve != nil {
		job.PostSolve(a)
	}
	return nil
}

// StageStats is one stage's point-in-time accounting. Busy is live
// occupancy, the programs inside the stage now (the
// gnt_pipeline_occupancy gauge); Items and BusyMS are cumulative, and
// their ratio is the stage's mean service time. Workers is the
// engine's Workers on every stage, since every stage runs on an
// Analyze slot. QueueDepth is the number of Analyze calls waiting for
// a slot, reported on cfg-build, the first stage they will enter; it
// is 0 on every other stage, where nothing ever waits.
type StageStats struct {
	Stage      string  `json:"stage"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	Busy       int64   `json:"busy"`
	Items      int64   `json:"items"`
	BusyMS     float64 `json:"busy_ms"`
}

// PipelineStats snapshots every stage in run order.
func (e *Engine) PipelineStats() []StageStats {
	out := make([]StageStats, numStages)
	for i := range e.stages {
		st := &e.stages[i]
		out[i] = StageStats{
			Stage:   stageNames[i],
			Workers: e.cfg.Workers,
			Busy:    st.busy.Load(),
			Items:   st.items.Load(),
			BusyMS:  float64(st.busyNS.Load()) / 1e6,
		}
	}
	out[stageCFG].QueueDepth = int(e.waiting.Load())
	return out
}
