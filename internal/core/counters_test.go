package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// The solver counters are the empirical witness of the §5.2 complexity
// claim: 20 equation evaluations per node (Eqs. 1–10 once, Eqs. 11–15
// once per schedule), each exactly once, and WordOps = SetOps × Words.
func TestSolverCounters(t *testing.T) {
	sc := newScenario(t, `
do i = 1, n
    if test then
        x = a
    endif
enddo
y = a
`)
	sc.take("x = a")
	sc.take("y = a")
	s := sc.solve()

	c := s.Counters("TEST")
	if c.Problem != "TEST" {
		t.Errorf("problem label = %q", c.Problem)
	}
	if c.Nodes != len(sc.g.Nodes) {
		t.Errorf("Nodes = %d, want %d", c.Nodes, len(sc.g.Nodes))
	}
	if c.Universe != 1 || c.Words != 1 {
		t.Errorf("Universe/Words = %d/%d, want 1/1", c.Universe, c.Words)
	}
	if err := c.OnePass(); err != nil {
		t.Error(err)
	}
	if want := int64(20 * c.Nodes); c.EquationEvals != want {
		t.Errorf("EquationEvals = %d, want %d", c.EquationEvals, want)
	}
	if c.SetOps <= 0 || c.WordOps != c.SetOps*int64(c.Words) {
		t.Errorf("SetOps=%d WordOps=%d Words=%d", c.SetOps, c.WordOps, c.Words)
	}
	if c.MaxLevel < 2 {
		t.Errorf("MaxLevel = %d, want ≥ 2 (the loop nests)", c.MaxLevel)
	}
	total := 0
	for _, n := range c.NodesPerLevel {
		total += n
	}
	if total != c.Nodes {
		t.Errorf("NodesPerLevel sums to %d, want %d", total, c.Nodes)
	}
}

// A second evaluation of an equation group at a node would silently
// void the O(E) bound; the equation layer must fail loudly. The panic
// value is the typed *InvariantError that SolveCtx recovers, so API
// users only ever see it as an error.
func TestDoubleEvaluationPanics(t *testing.T) {
	sc := newScenario(t, "x = a\n")
	s := sc.solve()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("re-evaluation did not panic")
		}
		inv, ok := r.(*InvariantError)
		if !ok || !strings.Contains(inv.Error(), "re-evaluated") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !errors.Is(inv, ErrInvariant) {
			t.Fatal("InvariantError does not match ErrInvariant")
		}
	}()
	// re-run one equation group on an already-solved instance
	s.eq1_8(sc.g.Preorder[0], sc.init)
}

// SolveCtx converts the invariant panic into a returned error at the
// API boundary: no caller of the exported entry points sees a panic.
func TestSolveReturnsErrInvariant(t *testing.T) {
	sc := newScenario(t, "x = a\n")
	s := sc.solve()
	// Corrupt the evaluation ledger so the next solve on the same
	// Solution would double-evaluate; easiest is to re-drive one group
	// through a wrapper that recovers like SolveCtx does.
	_, err := func() (sol *Solution, err error) {
		defer func() {
			if r := recover(); r != nil {
				if inv, ok := r.(*InvariantError); ok {
					err = inv
					return
				}
				panic(r)
			}
		}()
		s.eq1_8(sc.g.Preorder[0], sc.init)
		return s, nil
	}()
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant", err)
	}
	var inv *InvariantError
	if !errors.As(err, &inv) || inv.Node != sc.g.Preorder[0].ID {
		t.Fatalf("err = %#v, want *InvariantError at node %d", err, sc.g.Preorder[0].ID)
	}
}

// A canceled context abandons the solve between nodes with ctx.Err().
func TestSolveCtxCanceled(t *testing.T) {
	sc := newScenario(t, "do i = 1, n\n x(i) = a\nenddo\n")
	sc.take("x(i) = a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := SolveCtx(ctx, sc.g, sc.u, sc.init)
	if s != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx on canceled ctx = (%v, %v), want (nil, context.Canceled)", s, err)
	}
}

// Initial variables must have one row per node over the solve's
// universe; a mismatch is returned as an error before any equation runs.
func TestSolveRejectsMisfitInit(t *testing.T) {
	sc := newScenario(t, "x = a\n")
	n := len(sc.g.Nodes)
	for _, init := range []*Init{NewInit(n, 2), NewInit(n+1, 1)} {
		if s, err := Solve(sc.g, 1, init); s != nil || err == nil {
			t.Errorf("Solve with %d×%d init = (%v, %v), want an error",
				init.Take.Rows(), init.Take.Universe(), s, err)
		}
	}
}
