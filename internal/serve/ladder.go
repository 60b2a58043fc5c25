package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"givetake/internal/check"
	"givetake/internal/check/mutate"
	"givetake/internal/comm"
	"givetake/internal/core"
	"givetake/internal/engine"
	"givetake/internal/frontend"
	"givetake/internal/interp"
	"givetake/internal/ir"
	"givetake/internal/obs"
)

// The degradation ladder. Every analysis request descends it until a
// rung holds; the bottom rung cannot fail, so every well-formed program
// gets a correct placement even when the full framework misbehaves.
//
//	rung 1 (full):     complete EAGER/LAZY placement with latency
//	                   hiding, statically verified (C1–C3, O1);
//	rung 2 (no-hoist): the paper's STEAL_init conservative mode — no
//	                   hoisting across loop boundaries — retried when
//	                   rung 1 fails verification or breaks a solver
//	                   invariant;
//	rung 3 (atomic):   production at each consumption point, no dataflow
//	                   solving at all. Trivially balanced; used on
//	                   deadline exhaustion or repeated failure.
const (
	RungFull    = 1
	RungNoHoist = 2
	RungAtomic  = 3
)

// RungName names a ladder rung for structured responses.
func RungName(r int) string {
	switch r {
	case RungFull:
		return "full"
	case RungNoHoist:
		return "no-hoist"
	case RungAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("rung-%d", r)
	}
}

// Request is one analysis job.
type Request struct {
	// Source is the mini-Fortran program text.
	Source string `json:"source"`
	// TimeoutMS bounds this request's analysis wall clock; zero uses the
	// server's RequestTimeout, larger values are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Execute additionally runs the annotated program and reports its
	// trace summary. N is the symbolic bound (default 8).
	Execute bool  `json:"execute,omitempty"`
	N       int64 `json:"n,omitempty"`
	// Chaos injects faults for testing; ignored (and rejected) unless
	// the server was started with AllowChaos.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// ChaosSpec is the fault-injection contract of the chaos harness: it
// simulates the failure modes the ladder exists for, from the outside,
// without compromising the production path.
type ChaosSpec struct {
	// PanicRung makes the named rung ("full", "no-hoist", "atomic")
	// panic mid-stage, exercising panic isolation.
	PanicRung string `json:"panic_rung,omitempty"`
	// MutateSeed, when nonzero, corrupts the rung-1 solution's bit
	// vectors (seeded, via check/mutate) before verification, forcing a
	// verifier rejection and a rung-2 descent.
	MutateSeed int64 `json:"mutate_seed,omitempty"`
	// StallMS simulates a slow analysis by stalling (context-aware) at
	// the start of rungs 1 and 2; combined with a short request
	// deadline it drives the deadline-storm path onto the atomic floor.
	StallMS int64 `json:"stall_ms,omitempty"`
}

// Attempt records one rung trial in a response, so callers always see
// how far the service had to degrade and why.
type Attempt struct {
	Rung       int     `json:"rung"`
	Name       string  `json:"name"`
	Outcome    string  `json:"outcome"` // ok | check-failed | invariant | panic | deadline | error
	Detail     string  `json:"detail,omitempty"`
	CheckErrs  int     `json:"check_errors,omitempty"`
	CheckWarns int     `json:"check_warnings,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// CheckSummary condenses a static verification for the response body.
type CheckSummary struct {
	Errors      int      `json:"errors"`
	Warnings    int      `json:"warnings"`
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// TraceSummary condenses an execution trace for the response body.
type TraceSummary struct {
	Steps     int64 `json:"steps"`
	Messages  int64 `json:"messages"`
	Volume    int64 `json:"volume"`
	Truncated bool  `json:"truncated,omitempty"`
}

// Response is the structured result of one analysis request. Every
// request — success, degradation, or failure — gets one, and it always
// names the ladder rung that produced the answer (or 0 when no rung
// could run, e.g. a parse error).
type Response struct {
	OK       bool      `json:"ok"`
	Rung     int       `json:"rung"`
	RungName string    `json:"rung_name,omitempty"`
	Ladder   []Attempt `json:"ladder,omitempty"`

	Annotated string           `json:"annotated,omitempty"`
	Check     *CheckSummary    `json:"check,omitempty"`
	Trace     *TraceSummary    `json:"trace,omitempty"`
	Phases    []obs.PhaseStats `json:"phases,omitempty"`

	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"` // machine-readable error class

	// Admission reports the server's admission-queue totals at the time
	// of the response. Attached only to overload (429) answers, so a
	// shed client can see whether it hit a blip (won >> shed) or a
	// sustained storm (shed climbing toward won).
	Admission *AdmissionCounts `json:"admission,omitempty"`
}

// AdmissionCounts is the won-versus-shed admission balance echoed in
// overload responses.
type AdmissionCounts struct {
	Won  int64 `json:"won"`
	Shed int64 `json:"shed"`
}

// noteAttempt appends one rung trial to the response ladder and counts
// it into gnt_ladder_attempts_total{rung,outcome}.
func (s *Server) noteAttempt(resp *Response, att Attempt) {
	s.inst.attempts.Inc(att.Name, att.Outcome)
	resp.Ladder = append(resp.Ladder, att)
}

// maxDiagnostics bounds the diagnostics echoed into a response.
const maxDiagnostics = 10

func summarize(res *check.Result) *CheckSummary {
	if res == nil {
		return nil
	}
	cs := &CheckSummary{Errors: len(res.Errors()), Warnings: len(res.Warnings())}
	for i, d := range res.Diagnostics {
		if i >= maxDiagnostics {
			cs.Diagnostics = append(cs.Diagnostics,
				fmt.Sprintf("... %d more", len(res.Diagnostics)-maxDiagnostics))
			break
		}
		cs.Diagnostics = append(cs.Diagnostics, d.String())
	}
	return cs
}

// attemptOutcome classifies a rung failure.
func attemptOutcome(err error) string {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, core.ErrInvariant):
		return "invariant"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// isolate runs a rung behind a recover boundary: a panic that unwinds
// on this goroutine (an injected chaos panic) becomes an
// *engine.PanicError instead of unwinding through the server — the same
// error a panic inside an engine stage already arrives as. This is the
// boundary that keeps one poisoned request from taking the process (or
// even its own response) down.
func isolate[T any](f func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// ladder runs the degradation ladder for one parsed program and fills
// in the response. ctx carries the request deadline; cancellation by
// the client aborts everything, while deadline exhaustion falls through
// to the detached atomic floor.
func (s *Server) ladder(ctx context.Context, prog *ir.Program, req *Request, resp *Response) {
	// One recorder per request, teed with the process-wide telemetry
	// bridge: the same span feeds this response's phase report and the
	// gnt_stage_duration_seconds histogram on /metrics.
	rec := obs.NewRecorder(obs.Config{})
	col := obs.Tee(rec, s.inst.bridge)
	defer func() {
		resp.Phases = rec.Phases()
		carrierFrom(ctx).setSpans(rec.Spans())
	}()

	chaos := req.Chaos
	if !s.cfg.AllowChaos {
		chaos = nil
	}

	type rungSpec struct {
		rung int
		opts comm.Opts
	}
	for _, r := range []rungSpec{{RungFull, comm.Opts{}}, {RungNoHoist, comm.Opts{SuppressHoist: true}}} {
		r := r
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				resp.Error, resp.Code = err.Error(), "canceled"
				return
			}
			break // deadline: drop to the atomic floor
		}
		att := Attempt{Rung: r.rung, Name: RungName(r.rung)}
		start := time.Now()
		// Rungs 1 and 2 run on the engine's stage pipeline: the READ and
		// WRITE halves solve concurrently in the solve stage, the solved
		// problems verify concurrently in the check stage, and the chaos
		// mutation rides the PostSolve hook — inside the solve stage
		// after both solves join, before verification.
		eres, err := isolate(func() (*engine.Result, error) {
			if chaos != nil && chaos.PanicRung == att.Name {
				panic(fmt.Sprintf("chaos: injected panic at rung %q", att.Name))
			}
			if chaos != nil && chaos.StallMS > 0 {
				if err := stallFor(ctx, time.Duration(chaos.StallMS)*time.Millisecond); err != nil {
					return nil, err
				}
			}
			var post func(*comm.Analysis)
			if chaos != nil && chaos.MutateSeed != 0 && r.rung == RungFull {
				post = func(a *comm.Analysis) {
					if a.Read == nil {
						return
					}
					rng := rand.New(rand.NewSource(chaos.MutateSeed))
					for i := 0; i < 4; i++ { // a few tries: some solutions have no mutable site
						if _, _, ok := mutate.Apply(rng, a.Read, a.Universe.Size()); ok {
							break
						}
					}
				}
			}
			return s.engine.Analyze(ctx, engine.Job{
				Prog: prog, Opts: r.opts, Collector: col, PostSolve: post,
			})
		})
		att.DurationMS = msSince(start)
		if err != nil {
			att.Outcome = attemptOutcome(err)
			att.Detail = err.Error()
			s.noteAttempt(resp, att)
			if att.Outcome == "canceled" {
				resp.Error, resp.Code = err.Error(), "canceled"
				return
			}
			continue
		}
		a, res := eres.Analysis, eres.Check
		att.CheckErrs, att.CheckWarns = len(res.Errors()), len(res.Warnings())
		if !res.Ok() {
			att.Outcome = "check-failed"
			att.Detail = res.Errors()[0].String()
			s.noteAttempt(resp, att)
			eres.Release()
			continue
		}
		att.Outcome = "ok"
		s.noteAttempt(resp, att)
		s.finish(ctx, a, comm.DefaultOptions, r.rung, req, resp, res, col)
		eres.Release()
		return
	}

	// Rung 3: the floor. Detached from the request deadline — a deadline
	// storm must still end in a correct placement, and Atomic is linear
	// in program size so this terminates promptly. Client cancellation
	// was already handled above.
	att := Attempt{Rung: RungAtomic, Name: RungName(RungAtomic)}
	start := time.Now()
	a, err := isolate(func() (*comm.Analysis, error) {
		if chaos != nil && chaos.PanicRung == att.Name {
			panic(fmt.Sprintf("chaos: injected panic at rung %q", att.Name))
		}
		return comm.AtomicFallback(prog, col)
	})
	if err != nil {
		// only reachable by injected chaos or an unparseable-but-checked
		// program; still a structured response, never a crash
		att.Outcome = attemptOutcome(err)
		att.Detail = err.Error()
		att.DurationMS = msSince(start)
		s.noteAttempt(resp, att)
		resp.Error, resp.Code = err.Error(), "ladder-exhausted"
		return
	}
	res, err := a.CheckPlacementCtx(context.Background(), col)
	att.DurationMS = msSince(start)
	if err == nil && res.Ok() {
		att.Outcome = "ok"
		att.CheckErrs, att.CheckWarns = len(res.Errors()), len(res.Warnings())
		s.noteAttempt(resp, att)
		s.finish(ctx, a, comm.Options{Reads: true, Writes: true}, RungAtomic, req, resp, res, col)
		return
	}
	att.Outcome = "check-failed"
	if err != nil {
		att.Outcome = attemptOutcome(err)
		att.Detail = err.Error()
	} else if !res.Ok() {
		att.Detail = res.Errors()[0].String()
	}
	s.noteAttempt(resp, att)
	resp.Error, resp.Code = "atomic floor failed verification", "ladder-exhausted"
}

// finish renders the successful placement into the response and
// optionally executes it.
func (s *Server) finish(ctx context.Context, a *comm.Analysis, opt comm.Options,
	rung int, req *Request, resp *Response, res *check.Result, col obs.Collector) {
	resp.OK = true
	resp.Rung, resp.RungName = rung, RungName(rung)
	resp.Annotated = a.AnnotatedSource(opt)
	resp.Check = summarize(res)
	if !req.Execute {
		return
	}
	n := req.N
	if n <= 0 {
		n = 8
	}
	tr, err := interp.RunCtx(ctx, a.Annotate(opt), interp.Config{
		N: n, MaxSteps: s.cfg.MaxSteps, Collector: col,
	})
	if tr != nil {
		resp.Trace = &TraceSummary{
			Steps: tr.Steps, Messages: tr.Messages(), Volume: tr.Volume(),
			Truncated: err != nil,
		}
	}
	// a truncated execution is reported, not failed: the placement
	// itself is verified and the partial trace is still meaningful
	if err != nil && !errors.Is(err, interp.ErrStepLimit) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		resp.Trace = nil
		resp.Error, resp.Code = err.Error(), "execute-failed"
	}
}

// Analyze runs the full request pipeline — parse, ladder, optional
// execution — and always returns a structured response. It never
// panics; HTTP transport aside, this is the whole service.
func (s *Server) Analyze(ctx context.Context, req *Request) *Response {
	resp := &Response{}
	defer func() {
		if r := recover(); r != nil {
			// last-ditch isolation: nothing below should reach here, but a
			// structured 500 beats a dead worker
			resp.OK = false
			resp.Error, resp.Code = fmt.Sprintf("internal panic: %v", r), "panic"
		}
	}()
	prog, err := frontend.Parse(req.Source)
	if err != nil {
		resp.Error, resp.Code = err.Error(), "parse-error"
		return resp
	}
	s.ladder(ctx, prog, req, resp)
	return resp
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// stallFor blocks for d or until ctx is done, whichever comes first,
// returning ctx's error in the latter case. Unlike time.After, the
// timer is stopped on the cancellation path, so a chaos-stalled ladder
// under load does not accumulate one pending timer per canceled
// request.
func stallFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
