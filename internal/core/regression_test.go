package core

import (
	"testing"

	"givetake/internal/interval"
)

// Regression tests for the Eq. 11 soundness fix: a first child must
// inherit GIVEN(HEADER) − STEAL(HEADER), not GIVEN(HEADER) alone (see
// the comment in eq11_13). Both tests fail with the unfixed equation.

// TestRegressionIterationSteal is the minimal forward-direction
// counterexample: x is available before the loop (produced for the first
// consumer); one body path steals it, the other consumes it. With the
// literal paper equation the in-loop consumer inherits pre-loop
// availability across iterations and starves after a steal iteration.
func TestRegressionIterationSteal(t *testing.T) {
	sc := newScenario(t, `
s = x(1)
do i = 1, n
    if c then
        y(1) = 0
    else
        t = x(1)
    endif
enddo
`)
	sc.take("s = x(1)")
	sc.steal("y(1) = 0")
	sc.take("t = x(1)")
	s := sc.solveVerified() // C3 must hold on the steal-then-consume path
	// and production for the in-loop consumer must sit inside the loop
	// (it cannot be hoisted past the conditional steal)
	n := sc.g.NodeFor(sc.node("t = x(1)").Block)
	if !s.Eager.ResIn.At(n.ID).Has(0) {
		t.Fatalf("eager production missing at the in-loop consumer:\n%s",
			s.Dump(func(int) string { return "x" }))
	}
}

// TestRegressionAfterSeed pins the randomized AFTER-problem seed that
// originally exposed the gap (reversed graph, steal on one loop path,
// consumer in a nested loop on the other).
func TestRegressionAfterSeed(t *testing.T) {
	seed := int64(8932946771082343255)
	g, init, u := randomProblem(t, seed, false)
	rev, err := interval.Reverse(g)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSolve(rev, u, init)
	if vs := Verify(s, init, VerifyConfig{CheckSafety: true, MaxPaths: 1500}); len(vs) > 0 {
		t.Fatalf("%d violations, first: %v", len(vs), vs[0])
	}
}
