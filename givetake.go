// Package givetake reproduces GIVE-N-TAKE, the balanced code placement
// framework of von Hanxleden and Kennedy (PLDI 1994), together with the
// full stack the paper builds on: a mini-Fortran frontend, interval flow
// graphs over Tarjan intervals, the fifteen-equation elimination solver
// with EAGER/LAZY and BEFORE/AFTER problem flavors, communication
// generation for distributed arrays (READ/WRITE send–receive splitting
// with message vectorization and latency hiding), classical PRE baselines
// (Morel–Renvoise and Lazy Code Motion), an interpreter, and an α–β
// machine cost model.
//
// The facade exposes the handful of entry points most users need:
//
//	prog, err := givetake.Parse(src)             // mini-Fortran → AST
//	cg, err := givetake.GenerateComm(prog)       // solve READ + WRITE placement
//	fmt.Print(cg.AnnotatedSource(givetake.SplitComm))
//	trace, err := givetake.Execute(annotated, givetake.ExecConfig{N: 1000})
//	cost := givetake.CostModelHighLatency.Cost(trace)
//
// Lower-level access — the raw solver, the interval graph, the PRE
// baselines — lives in the internal packages and is re-exported here
// where it forms part of the stable API.
package givetake

import (
	"context"

	"givetake/internal/cfg"
	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/core"
	"givetake/internal/frontend"
	"givetake/internal/interp"
	"givetake/internal/interval"
	"givetake/internal/ir"
	"givetake/internal/machine"
	"givetake/internal/netsim"
	"givetake/internal/obs"
)

// Program is a parsed mini-Fortran compilation unit.
type Program = ir.Program

// Parse parses and checks mini-Fortran source: DO loops, IF/ELSE,
// forward GOTOs out of loops, `real`/`distributed` array declarations,
// and '...' placeholders, as used in the paper's figures.
func Parse(src string) (*Program, error) { return frontend.Parse(src) }

// Format renders a program back to source text.
func Format(p *Program) string { return ir.ProgramString(p) }

// CommGen is the result of communication generation: the solved READ
// (BEFORE) and WRITE (AFTER) placement problems over the program's
// value-numbered section universe.
type CommGen = comm.Analysis

// CommOptions selects what AnnotatedSource/Annotate emit.
type CommOptions = comm.Options

// SplitComm emits Send/Recv halves (EAGER + LAZY solutions) for reads
// and writes — the paper's latency-hiding placement.
var SplitComm = comm.DefaultOptions

// AtomicComm emits one atomic operation per production at the LAZY
// placement, e.g. for a runtime-library call.
var AtomicComm = CommOptions{Reads: true, Writes: true}

// GenerateComm analyzes a program and solves both communication
// placement problems.
func GenerateComm(p *Program) (*CommGen, error) {
	return comm.Analyze(context.Background(), p, nil, CommOpts{})
}

// NaiveComm is the per-reference strawman of the paper's Figure 2 left:
// each distributed reference fetches its element in place.
func NaiveComm(p *Program, opt CommOptions) *Program { return comm.NaiveAnnotate(p, opt) }

// Solver-level API -----------------------------------------------------

// Solution is a solved GIVE-N-TAKE instance carrying every dataflow
// variable of the paper's Figure 13 plus the EAGER and LAZY results.
type Solution = core.Solution

// Init carries the initial variables TAKE_init, STEAL_init, GIVE_init.
type Init = core.Init

// Graph is the Tarjan-interval flow graph of §3.3.
type Graph = interval.Graph

// Mode selects the production schedule.
type Mode = core.Mode

// Eager and Lazy name the two schedules of a solution.
const (
	Eager = core.Eager
	Lazy  = core.Lazy
)

// BuildGraph constructs the interval flow graph of a program: CFG with
// one node per statement, critical edges split, loops discovered, edges
// classified ENTRY/CYCLE/JUMP/FORWARD/SYNTHETIC.
func BuildGraph(p *Program) (*Graph, error) {
	c, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	return interval.FromCFG(c)
}

// ReverseGraph builds the reversed view used to solve AFTER problems
// (production follows consumption, paper §5.3).
func ReverseGraph(g *Graph) (*Graph, error) { return interval.Reverse(g) }

// Solve runs the GiveNTake algorithm (paper Fig. 15): one evaluation of
// each equation per node, O(E) bit-vector steps. A broken one-pass
// invariant (a solver bug or corrupted input) surfaces as an error
// satisfying errors.Is(err, ErrInvariant) instead of a panic.
func Solve(g *Graph, universe int, init *Init) (*Solution, error) {
	return core.Solve(g, universe, init)
}

// SolveCtx is Solve with cooperative cancellation: the solver polls ctx
// at interval-node granularity and abandons the solve with ctx.Err()
// once it is canceled.
func SolveCtx(ctx context.Context, g *Graph, universe int, init *Init) (*Solution, error) {
	return core.SolveCtx(ctx, g, universe, init)
}

// MustSolve is Solve for callers that treat failure as a programming
// error; it panics on any solver error.
func MustSolve(g *Graph, universe int, init *Init) *Solution {
	return core.MustSolve(g, universe, init)
}

// ErrInvariant is the sentinel matched by errors.Is for solver errors
// caused by a broken one-pass O(E) evaluation invariant.
var ErrInvariant = core.ErrInvariant

// AtomicSolution returns the degenerate always-correct fallback
// placement for a graph: every item is produced exactly at its
// consumption point (trivially balanced, never fails). The returned
// Init is the runtime contract the placement verifies against. This is
// the bottom rung of the serve degradation ladder.
func AtomicSolution(g *Graph, universe int, init *Init) (*Solution, *Init) {
	return core.Atomic(g, universe, init)
}

// NewInit returns empty initial variables for a graph of n nodes over
// a universe of universe items.
func NewInit(n, universe int) *Init { return core.NewInit(n, universe) }

// Verify checks a solution against the paper's correctness criteria
// (C1 balance, C2 safety, C3 sufficiency) on all bounded execution
// paths; it returns the violations found (nil for a correct placement).
func Verify(s *Solution, init *Init, cfg VerifyConfig) []core.Violation {
	return core.Verify(s, init, cfg)
}

// VerifyConfig bounds the path enumeration of Verify.
type VerifyConfig = core.VerifyConfig

// Static verification ---------------------------------------------------

// CheckProblem is one solved placement problem for StaticVerify: the
// graph it was solved on, the initial variables, and the solution.
type CheckProblem = check.Problem

// CheckResult aggregates the findings of a static placement check,
// split into errors (criterion violations) and warnings (lints).
type CheckResult = check.Result

// CheckDiagnostic is one structured finding: a stable GNT0xx/GNT1xx
// code, the violated criterion, the offending node with its source
// anchor, and a concrete path witness.
type CheckDiagnostic = check.Diagnostic

// StaticVerify proves the paper's criteria (C1 balance, C2 safety,
// C3 sufficiency, O1 no re-production) over *all* execution paths of
// one solved problem by a fixed-point dataflow analysis that shares no
// equation code with the solver. Where Verify samples bounded paths,
// StaticVerify's pass is a proof. The combined pipeline hook — both
// problems plus the communication linter — is CommGen.CheckPlacement.
func StaticVerify(p *CheckProblem) *CheckResult { return check.Verify(p) }

// Execution and cost modeling ------------------------------------------

// ExecConfig parameterizes program execution.
type ExecConfig = interp.Config

// Trace is the dynamic communication trace of one execution.
type Trace = interp.Trace

// Execute runs a (possibly annotated) program and records its
// communication trace.
func Execute(p *Program, cfg ExecConfig) (*Trace, error) { return interp.Run(p, cfg) }

// ExecuteCtx is Execute with cooperative cancellation; on step-budget
// exhaustion or cancellation it returns the partial trace alongside the
// error.
func ExecuteCtx(ctx context.Context, p *Program, cfg ExecConfig) (*Trace, error) {
	return interp.RunCtx(ctx, p, cfg)
}

// ErrStepLimit is the sentinel matched by errors.Is when an execution
// exhausts its step budget.
var ErrStepLimit = interp.ErrStepLimit

// CostModel is an α–β latency/bandwidth model with overlap credit.
type CostModel = machine.Model

// Predefined cost models.
var (
	// CostModelHighLatency resembles an iPSC-class message-passing
	// machine: startup dominates.
	CostModelHighLatency = machine.HighLatency
	// CostModelLowLatency resembles a fast-interconnect machine.
	CostModelLowLatency = machine.LowLatency
)

// Fault-tolerant execution ---------------------------------------------

// FaultConfig parameterizes the simulated unreliable transport: seeded
// drop/dup/delay/reorder injection plus the recovery protocol (ack
// timeout, bounded exponential backoff with jitter, per-message retry
// budget). Set it on ExecConfig.Faults; the zero value executes over a
// perfectly reliable network, byte-identical to a plain run.
type FaultConfig = netsim.FaultConfig

// FaultReport summarizes one faulty execution: injected faults versus
// retransmitted, suppressed, recovered, and degraded transfers. It is
// available as Trace.Faults after a faulty Execute.
type FaultReport = netsim.FaultReport

// DefaultFaultConfig is the moderate-loss profile used by
// `gnt -mode run -faults`.
var DefaultFaultConfig = netsim.Default

// Observability ---------------------------------------------------------

// Collector receives phase spans from the pipeline. All instrumented
// entry points accept a nil Collector, which records nothing and costs
// nothing. Work counts come back as values instead (SolverCounters).
type Collector = obs.Collector

// Recorder is the standard Collector: it accumulates spans (a start
// offset and a duration each; safe for concurrent use) and renders
// them as a Chrome trace-event JSON profile (WriteTrace,
// Perfetto-loadable) or as the Report's phase rows.
type Recorder = obs.Recorder

// Report is the aggregated observability output of one pipeline run:
// phase timings, solver counters, runtime statistics, cost models.
type Report = obs.Report

// SolverCounters is the work profile of one solve — the empirical
// witness of the paper's one-pass O(E) complexity claim.
type SolverCounters = obs.SolverCounters

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// GenerateCommCtx is GenerateComm with observability and cooperative
// cancellation: pipeline stages report spans to col (nil records
// nothing), the returned analysis exposes solver counters via its
// Counters method, and the pipeline checks ctx between stages while the
// solver polls it at interval-node granularity.
func GenerateCommCtx(ctx context.Context, p *Program, col Collector) (*CommGen, error) {
	return comm.Analyze(ctx, p, col, CommOpts{})
}

// CommOpts tunes placement analysis beyond the defaults; see comm.Opts.
type CommOpts = comm.Opts

// GenerateCommOpts is GenerateCommCtx with analysis options — e.g.
// SuppressHoist, the paper's STEAL_init conservative mode (§4.1), which
// pins production inside every loop (rung 2 of the degradation ladder).
func GenerateCommOpts(ctx context.Context, p *Program, col Collector, opt CommOpts) (*CommGen, error) {
	return comm.Analyze(ctx, p, col, opt)
}

// AtomicFallbackComm builds the rung-3 fallback analysis: atomic
// production at each consumption point, no dataflow solving. It cannot
// hit solver invariants and is the never-fails floor of the serve
// degradation ladder.
func AtomicFallbackComm(p *Program, col Collector) (*CommGen, error) {
	return comm.AtomicFallback(p, col)
}
