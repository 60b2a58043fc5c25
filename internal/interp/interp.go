// Package interp executes mini-Fortran programs, including programs
// annotated with communication statements, and records a dynamic trace
// of the communication events: how many messages were issued, how many
// elements moved, and how far each Send ran ahead of its matching Recv
// (the latency-hiding distance the GIVE-N-TAKE split placement creates).
//
// The interpreter stands in for the distributed-memory testbeds of the
// paper era: the placement quality measures the paper argues about —
// message counts, vectorization, overlap — are all observable from this
// trace without modeling an actual network.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"givetake/internal/ir"
	"givetake/internal/netsim"
	"givetake/internal/obs"
)

// DefaultMaxSteps is the step budget applied when Config.MaxSteps is
// zero: 10 million statements.
const DefaultMaxSteps = 10_000_000

// maxCells caps the elements of all declared arrays of one run
// together (2^24 int64s, 128 MB); RunCtx rejects a program whose
// declarations exceed it before allocating any array.
const maxCells = 1 << 24

// ErrStepLimit is returned (wrapped) when execution exceeds the step
// budget; detect it with errors.Is(err, ErrStepLimit).
var ErrStepLimit = errors.New("interp: step budget exhausted")

// Config parameterizes one execution.
type Config struct {
	// N is the value of the symbolic bound n. Other preset scalars can
	// be given in Scalars.
	N       int64
	Scalars map[string]int64
	// Seed drives unknown branch conditions (like the paper's "test"):
	// they evaluate to a deterministic pseudo-random boolean stream.
	Seed int64
	// MaxSteps bounds execution (default DefaultMaxSteps).
	MaxSteps int64
	// Faults configures the simulated transport. The zero value (no
	// fault can fire) bypasses the transport entirely, so reliable
	// executions are byte-identical to the pre-fault interpreter.
	Faults netsim.FaultConfig
	// FaultSeed seeds fault injection independently of Seed, so turning
	// faults on never perturbs the branch-condition stream being
	// measured. Zero derives a seed from Seed.
	FaultSeed int64
	// Collector receives an "execute" span per Run; nil records nothing
	// and costs nothing (execution itself is never instrumented per
	// statement).
	Collector obs.Collector
	// SpanName overrides the span name, to distinguish placement
	// variants in one trace ("execute:gnt-split").
	SpanName string
}

// maxSteps is the effective step budget.
func (c Config) maxSteps() int64 {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return DefaultMaxSteps
}

// CommEvent is one executed communication statement.
type CommEvent struct {
	Op    string // "READ" or "WRITE"
	Half  string // "Send", "Recv", or "" for atomic
	Step  int64  // statement counter at execution time
	Elems int64  // elements covered by the transferred sections
	Args  string // rendered argument list, for matching sends to recvs

	// Fault-runtime fields, populated on Recv and atomic events when
	// Config.Faults is enabled; all zero on a reliable run.
	Retries    int   // retransmissions this transfer needed
	Suppressed int   // duplicate deliveries discarded here (redelivery flag)
	Arrival    int64 // step the payload became available
	Stall      int64 // sender-side timeout+backoff stall, in steps
	Degraded   bool  // budget exhausted: re-issued atomically here (LAZY point)
}

// Trace is the result of one execution.
type Trace struct {
	Steps  int64
	Events []CommEvent
	// Faults summarizes injected faults and recovery; nil when the
	// execution ran over the reliable transport.
	Faults *netsim.FaultReport
}

// Messages counts executed communication statements (vectorized
// transfers count once), taking one half of split pairs.
func (t *Trace) Messages() int64 {
	var n int64
	for _, e := range t.Events {
		if e.Half == "Recv" {
			continue // count the Send half of a split pair
		}
		n++
	}
	return n
}

// Volume sums the elements moved (Send halves and atomics).
func (t *Trace) Volume() int64 {
	var v int64
	for _, e := range t.Events {
		if e.Half == "Recv" {
			continue
		}
		v += e.Elems
	}
	return v
}

// OverlapStats reports the matched Send/Recv pairs of the trace (see
// Pairs for the matching discipline) with their total and minimum step
// distances. When the trace has no split pairs at all, minDist is the
// sentinel -1, distinguishing "nothing was split" from a true minimum
// overlap of zero.
func (t *Trace) OverlapStats() (pairs int64, totalDist int64, minDist int64) {
	ps, _, _ := t.Pairs()
	minDist = -1
	for _, p := range ps {
		d := p.Recv.Step - p.Send.Step
		pairs++
		totalDist += d
		if minDist < 0 || d < minDist {
			minDist = d
		}
	}
	return
}

// UnmatchedSplit reports the number of Sends without a Recv and vice
// versa; both are zero for balanced placements (criterion C1).
func (t *Trace) UnmatchedSplit() (sends, recvs int64) {
	_, us, ur := t.Pairs()
	return int64(len(us)), int64(len(ur))
}

// Run executes the program and returns its trace.
func Run(prog *ir.Program, cfg Config) (*Trace, error) {
	return RunCtx(context.Background(), prog, cfg)
}

// RunCtx is Run with cooperative cancellation: execution polls ctx
// every pollSteps statements and aborts with ctx.Err() once it is
// canceled.
//
// On execution errors that truncate an otherwise healthy run — step
// budget exhaustion (errors.Is(err, ErrStepLimit)) and cancellation —
// RunCtx returns the partial trace accumulated so far alongside the
// error, with Steps and Faults finalized, so callers can still inspect
// how far the program got. Setup errors return a nil trace.
func RunCtx(ctx context.Context, prog *ir.Program, cfg Config) (*Trace, error) {
	cfg.MaxSteps = cfg.maxSteps()
	spanName := cfg.SpanName
	if spanName == "" {
		spanName = obs.SpanExecute
	}
	end := obs.Begin(cfg.Collector, spanName)
	defer func() { end() }()
	ex := &executor{
		cfg:     cfg,
		prog:    prog,
		scalars: map[string]int64{},
		arrays:  map[string][]int64{},
		dims:    map[string][]int64{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		trace:   &Trace{},
		done:    ctx.Done(),
		ctx:     ctx,
	}
	if cfg.Faults.Enabled() {
		seed := cfg.FaultSeed
		if seed == 0 {
			// decorrelate from the branch-condition stream
			seed = cfg.Seed*0x9E3779B9 + 0x7F4A7C15
		}
		ex.net = netsim.New(cfg.Faults, seed)
	}
	ex.scalars["n"] = cfg.N
	for k, v := range cfg.Scalars {
		ex.scalars[k] = v
	}
	// Size every declaration before allocating any: the cap bounds the
	// element count of all arrays together, not of each one.
	totals := make([]int64, len(prog.Decls))
	var cells int64
	for i, d := range prog.Decls {
		total := int64(1)
		var dims []int64
		for _, dim := range d.Dims {
			size := ex.eval(dim)
			if size < 1 {
				size = 1
			}
			dims = append(dims, size)
			// 1-based per dimension; saturate past the cap so the
			// product cannot overflow
			total = min(total*(min(size, maxCells)+1), maxCells+1)
		}
		if len(dims) == 0 {
			dims, total = []int64{1}, 2
		}
		cells += total
		if cells > maxCells {
			return nil, fmt.Errorf("interp: array %s too large (%d)", d.Name, cells)
		}
		totals[i] = total
		ex.dims[d.Name] = dims
	}
	for i, d := range prog.Decls {
		ex.arrays[d.Name] = make([]int64, totals[i])
	}
	_, err := ex.exec(prog.Body)
	// finalize the trace even when execution was truncated: a partial
	// trace with Steps and Faults populated is still meaningful to
	// budget-limited callers (gnt -mode serve)
	ex.trace.Steps = ex.steps
	if ex.net != nil {
		ex.net.Finish()
		rep := ex.net.Report()
		ex.trace.Faults = &rep
	}
	if err != nil {
		return ex.trace, err
	}
	// explicit close attaches the result sizes; the deferred end() is
	// then a no-op (it only fires on error paths)
	end("steps", ex.trace.Steps, "events", len(ex.trace.Events))
	return ex.trace, nil
}

// Stats aggregates the trace into an obs.RuntimeStats row named name
// (the placement variant). Cost-model rows are attached by the caller.
func (t *Trace) Stats(name string) obs.RuntimeStats {
	rs := obs.RuntimeStats{
		Name:       name,
		Steps:      t.Steps,
		Messages:   t.Messages(),
		Volume:     t.Volume(),
		OverlapMin: -1,
	}
	pairs, usends, urecvs := t.Pairs()
	rs.UnmatchedSends, rs.UnmatchedRecvs = int64(len(usends)), int64(len(urecvs))
	if len(pairs) > 0 {
		rs.OverlapHist = &obs.Histogram{}
	}
	for _, p := range pairs {
		d := p.Recv.Step - p.Send.Step
		rs.SplitPairs++
		rs.OverlapTotal += d
		if rs.OverlapMin < 0 || d < rs.OverlapMin {
			rs.OverlapMin = d
		}
		if d > rs.OverlapMax {
			rs.OverlapMax = d
		}
		rs.OverlapHist.Add(d)
	}
	for i := range t.Events {
		e := &t.Events[i]
		rs.Retries += int64(e.Retries)
		rs.Suppressed += int64(e.Suppressed)
		rs.StallSteps += e.Stall
		if e.Degraded {
			rs.Degraded++
		}
	}
	if t.Faults != nil {
		rs.Faults = t.Faults.Counters()
	}
	return rs
}

type executor struct {
	cfg     Config
	prog    *ir.Program
	scalars map[string]int64
	arrays  map[string][]int64
	dims    map[string][]int64 // per-array dimension extents (1-based)
	rng     *rand.Rand
	net     *netsim.Transport // nil: reliable transport
	trace   *Trace
	steps   int64
	done    <-chan struct{} // ctx.Done(), polled every pollSteps ticks
	ctx     context.Context
}

// pollSteps is how often (in statement ticks) the executor polls for
// cancellation: frequent enough that canceling a hot loop takes well
// under a millisecond, rare enough to stay off the tick fast path.
const pollSteps = 1024

// flatIndex linearizes a (1-based) multi-dimensional index; out-of-range
// or rank-mismatched accesses yield -1.
func (ex *executor) flatIndex(name string, subs []ir.Expr) int64 {
	dims, ok := ex.dims[name]
	if !ok || len(subs) != len(dims) {
		return -1
	}
	idx := int64(0)
	for d, sub := range subs {
		v := ex.eval(sub)
		if v < 0 || v > dims[d] {
			return -1
		}
		idx = idx*(dims[d]+1) + v
	}
	return idx
}

func (ex *executor) tick() error {
	ex.steps++
	if ex.steps > ex.cfg.MaxSteps {
		return fmt.Errorf("%w (MaxSteps=%d)", ErrStepLimit, ex.cfg.MaxSteps)
	}
	if ex.steps%pollSteps == 0 && ex.done != nil {
		select {
		case <-ex.done:
			return ex.ctx.Err()
		default:
		}
	}
	return nil
}

// exec runs a statement list; a non-empty label return means a GOTO to
// that label is propagating outward until some list contains it.
func (ex *executor) exec(stmts []ir.Stmt) (goLabel string, err error) {
	for i := 0; i < len(stmts); i++ {
		s := stmts[i]
		label, err := ex.stmt(s)
		if err != nil {
			return "", err
		}
		if label == "" {
			continue
		}
		// find the label among the following statements at this level
		found := false
		for j := i + 1; j < len(stmts); j++ {
			if stmts[j].Label() == label {
				i = j - 1
				found = true
				break
			}
		}
		if !found {
			// the frontend only admits forward gotos, so an unfound label
			// lives further out; propagate
			return label, nil
		}
	}
	return "", nil
}

func (ex *executor) stmt(s ir.Stmt) (goLabel string, err error) {
	if err := ex.tick(); err != nil {
		return "", err
	}
	switch s := s.(type) {
	case *ir.Assign:
		v := ex.eval(s.RHS)
		switch lhs := s.LHS.(type) {
		case *ir.Ident:
			ex.scalars[lhs.Name] = v
		case *ir.ArrayRef:
			if arr, ok := ex.arrays[lhs.Name]; ok {
				if idx := ex.flatIndex(lhs.Name, lhs.Subs); idx >= 0 && idx < int64(len(arr)) {
					arr[idx] = v
				}
			}
		}
		return "", nil
	case *ir.Continue:
		return "", nil
	case *ir.Goto:
		return s.Target, nil
	case *ir.Do:
		lo, hi := ex.eval(s.Lo), ex.eval(s.Hi)
		step := int64(1)
		if s.Step != nil {
			if step = ex.eval(s.Step); step == 0 {
				step = 1
			}
		}
		for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
			ex.scalars[s.Var] = v
			label, err := ex.exec(s.Body)
			if err != nil {
				return "", err
			}
			if label != "" {
				return label, nil // jump out of the loop
			}
			if err := ex.tick(); err != nil { // loop-control step
				return "", err
			}
		}
		return "", nil
	case *ir.If:
		if ex.truth(s.Cond) {
			return ex.exec(s.Then)
		}
		return ex.exec(s.Else)
	case *ir.Comm:
		// Each section of a (possibly vectorized) communication statement
		// is one message: the combined READ_Recv{x(...), y(...)} of
		// Figure 14 completes two transfers whose sends were issued at
		// different points, so sections are traced individually to pair
		// sends with receives.
		for _, a := range s.Args {
			ev := CommEvent{
				Op: s.Op, Half: s.Half, Step: ex.steps,
				Elems: ex.sectionElems(a), Args: ir.ExprString(a),
			}
			if ex.net != nil {
				// route the transfer through the simulated transport;
				// delivery outcomes land on the completing (Recv or
				// atomic) event, where the receiver observes them
				switch s.Half {
				case "Send":
					ex.net.Send(ev.Op, ev.Args, ev.Elems, ev.Step)
				case "Recv":
					ev.applyDelivery(ex.net.Recv(ev.Op, ev.Args, ev.Elems, ev.Step))
				default:
					ev.applyDelivery(ex.net.Atomic(ev.Op, ev.Args, ev.Elems, ev.Step))
				}
			}
			ex.trace.Events = append(ex.trace.Events, ev)
		}
		return "", nil
	default:
		return "", fmt.Errorf("interp: cannot execute %T", s)
	}
}

// applyDelivery copies a transport outcome onto the completing event.
func (e *CommEvent) applyDelivery(d netsim.Delivery) {
	e.Retries = d.Retries
	e.Suppressed = d.Suppressed
	e.Arrival = d.Arrival
	e.Stall = d.Stall
	e.Degraded = d.Degraded
}

// sectionElems counts the elements of a communicated section: a triplet
// lo:hi:st covers (hi-lo)/st + 1 elements per dimension, dimensions
// multiply, and a plain element reference covers one. Indirect sections
// a(1:n) count the subscript range.
func (ex *executor) sectionElems(e ir.Expr) int64 {
	if ref, ok := e.(*ir.ArrayRef); ok && len(ref.Subs) >= 1 {
		total := int64(1)
		for _, sub := range ref.Subs {
			total *= ex.rangeElems(sub)
		}
		return total
	}
	return 1
}

func (ex *executor) rangeElems(e ir.Expr) int64 {
	switch e := e.(type) {
	case *ir.RangeExpr:
		lo, hi := ex.eval(e.Lo), ex.eval(e.Hi)
		st := int64(1)
		if e.Stride != nil {
			if st = ex.eval(e.Stride); st <= 0 {
				st = 1
			}
		}
		if hi < lo {
			return 0
		}
		return (hi-lo)/st + 1
	case *ir.ArrayRef:
		if len(e.Subs) == 1 {
			return ex.rangeElems(e.Subs[0])
		}
		return 1
	default:
		return 1
	}
}

// truth evaluates a condition; unknown scalars draw from the seeded
// stream so "if test then" branches vary per execution but reproducibly.
func (ex *executor) truth(e ir.Expr) bool {
	switch e := e.(type) {
	case *ir.BinExpr:
		x, y := ex.eval(e.X), ex.eval(e.Y)
		switch e.Op {
		case "<":
			return x < y
		case "<=":
			return x <= y
		case ">":
			return x > y
		case ">=":
			return x >= y
		case "==":
			return x == y
		case "!=":
			return x != y
		case ".and.":
			return ex.truth(e.X) && ex.truth(e.Y)
		case ".or.":
			return ex.truth(e.X) || ex.truth(e.Y)
		}
		return x != 0
	case *ir.UnaryExpr:
		if e.Op == ".not." {
			return !ex.truth(e.X)
		}
		return ex.eval(e) != 0
	case *ir.Ident:
		if v, ok := ex.scalars[e.Name]; ok {
			return v != 0
		}
		return ex.rng.Intn(2) == 0
	case *ir.ArrayRef:
		if _, known := ex.arrays[e.Name]; known {
			return ex.eval(e) != 0
		}
		return ex.rng.Intn(2) == 0
	default:
		return ex.eval(e) != 0
	}
}

func (ex *executor) eval(e ir.Expr) int64 {
	switch e := e.(type) {
	case nil:
		return 0
	case *ir.IntLit:
		return e.Value
	case *ir.Ellipsis:
		return 0
	case *ir.Ident:
		return ex.scalars[e.Name] // zero for unknowns
	case *ir.UnaryExpr:
		if e.Op == "-" {
			return -ex.eval(e.X)
		}
		if ex.truth(e) {
			return 1
		}
		return 0
	case *ir.BinExpr:
		switch e.Op {
		case "+":
			return ex.eval(e.X) + ex.eval(e.Y)
		case "-":
			return ex.eval(e.X) - ex.eval(e.Y)
		case "*":
			return ex.eval(e.X) * ex.eval(e.Y)
		case "/":
			if d := ex.eval(e.Y); d != 0 {
				return ex.eval(e.X) / d
			}
			return 0
		default:
			if ex.truth(e) {
				return 1
			}
			return 0
		}
	case *ir.ArrayRef:
		if arr, ok := ex.arrays[e.Name]; ok {
			if idx := ex.flatIndex(e.Name, e.Subs); idx >= 0 && idx < int64(len(arr)) {
				return arr[idx]
			}
		}
		return 0
	case *ir.RangeExpr:
		return ex.eval(e.Lo)
	default:
		return 0
	}
}
