package core

import (
	"testing"
)

// TestRegressionNoHoistBalance pins the randomized seed that exposed a
// balance break in the term-dropping implementation of NoHoist: with
// hoisting suppressed only via Eq. 5, an item consumed conditionally
// inside the loop and unconditionally after it got one eager production
// but two lazy ones on the path through both consumers. The STEAL-based
// NoHoist (see eq1_8) restores C1.
func TestRegressionNoHoistBalance(t *testing.T) {
	seed := int64(-1825419746314462845)
	g, init, u := randomProblem(t, seed, false)
	for _, n := range g.Nodes {
		n.NoHoist = true
	}
	s := MustSolve(g, u, init)
	vs := Verify(s, init, VerifyConfig{CheckSafety: true, MaxPaths: 1500})
	for i, v := range vs {
		if i > 1 {
			break
		}
		t.Logf("violation: %v", v)
		for _, n := range v.Path {
			t.Logf("  pre=%d %v take=%v steal=%v give=%v RinE=%v RinL=%v RoutE=%v RoutL=%v",
				n.Pre+1, n,
				init.Take.At(n.ID), init.Steal.At(n.ID), init.Give.At(n.ID),
				s.Eager.ResIn.At(n.ID), s.Lazy.ResIn.At(n.ID), s.Eager.ResOut.At(n.ID), s.Lazy.ResOut.At(n.ID))
		}
	}
	if len(vs) > 0 {
		t.Logf("graph:\n%s", g)
		t.Fail()
	}
}
