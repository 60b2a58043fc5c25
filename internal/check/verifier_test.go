package check

import (
	"context"
	"errors"
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/core"
	"givetake/internal/frontend"
	"givetake/internal/interval"
)

// failingProblem solves a loop that consumes item 0 on every statement
// and then drops every EAGER production (every Send), so the verifier
// reports C1 errors, each backed by a witness search.
func failingProblem(t *testing.T) *Problem {
	t.Helper()
	prog, err := frontend.Parse("do i = 1, n\n a = 1\n b = 2\nenddo\nc = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatal(err)
	}
	init := core.NewInit(len(g.Nodes), 1)
	for _, n := range g.Nodes {
		if n.Block.Kind == cfg.KStmt {
			init.AddTake(n, bitset.Of(1, 0))
		}
	}
	sol := core.MustSolve(g, 1, init)
	for _, res := range []bitset.Slab{sol.Eager.ResIn, sol.Eager.ResOut} {
		for id := 0; id < res.Rows(); id++ {
			res.At(id).Clear()
		}
	}
	p := &Problem{Name: "READ", Graph: g, Universe: 1, Init: init, Sol: sol}
	res := Verify(p)
	if res.Ok() || len(res.Errors()[0].Path) == 0 {
		t.Fatalf("fixture verifies without a witnessed error: %+v", res.Diagnostics)
	}
	return p
}

// TestCancelBeforeReporting cancels between the fixed point and the
// reporting pass: the pass must stop with ctx.Err() before emitting a
// diagnostic or starting a witness search.
func TestCancelBeforeReporting(t *testing.T) {
	p := failingProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v := newVerifier(ctx, p)
	if err := v.fixpoint(); err != nil {
		t.Fatalf("fixpoint: %v", err)
	}
	cancel()
	if err := v.report(); !errors.Is(err, context.Canceled) {
		t.Fatalf("report after cancel = %v, want %v", err, context.Canceled)
	}
	if len(v.diags) != 0 {
		t.Fatalf("canceled reporting pass emitted %d diagnostics", len(v.diags))
	}
}

// TestWitnessPollsCtx cancels before a witness search: the search must
// give up with the error recorded, and emit must drop the diagnostic.
func TestWitnessPollsCtx(t *testing.T) {
	p := failingProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v := newVerifier(ctx, p)
	if err := v.fixpoint(); err != nil {
		t.Fatalf("fixpoint: %v", err)
	}
	cancel()
	v.reporting = true
	v.cur = v.order[0]
	v.emit(CodeStopWithoutStart, "C1", 1, 0, v.cur.node, "test", fpClose, phaseIn)
	if !errors.Is(v.err, context.Canceled) {
		t.Fatalf("witness search after cancel left err = %v, want %v", v.err, context.Canceled)
	}
	if len(v.diags) != 0 {
		t.Fatalf("canceled witness search still recorded %d diagnostics", len(v.diags))
	}
}
