package comm

import (
	"context"

	"givetake/internal/check"
	"givetake/internal/ir"
	"givetake/internal/obs"
)

// Problems exposes the solved READ/WRITE placements as independent
// verification problems for internal/check. The WRITE problem carries
// the reversed graph it was solved on, so the verifier walks the AFTER
// orientation without special cases.
func (a *Analysis) Problems() []*check.Problem {
	names := a.ItemNames()
	var out []*check.Problem
	if a.Read != nil {
		out = append(out, &check.Problem{
			Name:     "READ",
			Graph:    a.Graph,
			Universe: a.Universe.Size(),
			Init:     a.ReadInit,
			Sol:      a.Read,
			ItemName: names,
		})
	}
	if a.Write != nil {
		out = append(out, &check.Problem{
			Name:     "WRITE",
			Graph:    a.RevGraph,
			Universe: a.Universe.Size(),
			Init:     a.WriteInit,
			Sol:      a.Write,
			ItemName: names,
		})
	}
	return out
}

// CheckPlacement statically re-verifies both placement problems
// (C1–C3, O1 over all paths; see internal/check) and runs the
// communication linter, without trusting the solver's equations. The
// work is recorded as a "check" span on col; a nil collector is fine.
func (a *Analysis) CheckPlacement(col obs.Collector) *check.Result {
	res, _ := a.CheckPlacementCtx(context.Background(), col)
	return res
}

// CheckPlacementCtx is CheckPlacement with cooperative cancellation:
// the verifier's fixed point polls ctx and the whole check aborts with
// ctx.Err() once it is canceled.
func (a *Analysis) CheckPlacementCtx(ctx context.Context, col obs.Collector) (*check.Result, error) {
	end := obs.Begin(col, obs.SpanCheck)
	probs := a.Problems()
	res, err := check.VerifyAllCtx(ctx, probs...)
	if err != nil {
		end()
		return nil, err
	}
	res.Diagnostics = append(res.Diagnostics, a.lints(probs)...)
	res.Sort()
	contexts, iterations := 0, 0
	for _, s := range res.Stats {
		contexts += s.Contexts
		iterations += s.Iterations
	}
	end("errors", len(res.Errors()), "warnings", len(res.Warnings()),
		"contexts", contexts, "iterations", iterations)
	return res, nil
}

// lints runs the communication linter over the solved problems plus
// the whole-program lints, without the static verify itself.
func (a *Analysis) lints(probs []*check.Problem) []check.Diagnostic {
	var out []check.Diagnostic
	for _, p := range probs {
		out = append(out, check.Lint(p)...)
	}
	return append(out, a.lintDeadArrays()...)
}

// lintDeadArrays flags distributed arrays that no statement ever
// references or defines: they force ownership bookkeeping at runtime
// but can never cause communication.
func (a *Analysis) lintDeadArrays() []check.Diagnostic {
	used := map[string]bool{}
	for _, it := range a.Universe.Items {
		used[it.Array] = true
	}
	var out []check.Diagnostic
	for _, d := range a.Prog.Decls {
		if d.Dist == ir.Local || used[d.Name] {
			continue
		}
		out = append(out, check.Diagnostic{
			Code:      check.CodeDeadArray,
			Severity:  check.Warning,
			Criterion: "lint",
			Item:      -1,
			ItemName:  d.Name,
			Node:      -1,
			Pos:       d.Pos().String(),
			Detail:    "distributed array is never referenced or defined; no communication will be generated",
		})
	}
	return out
}
