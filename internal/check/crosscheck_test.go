package check_test

import (
	"math/rand"
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/check"
	"givetake/internal/core"
	"givetake/internal/interval"
	"givetake/internal/progen"
)

// The crosscheck promotes the bounded path oracle of internal/core to a
// witness for the static verifier: on every corpus and generated
// program, a static pass (zero error diagnostics) must imply that
// bounded path enumeration finds no counterexample either. The two
// checkers share no equation or lattice code, so agreement is strong
// evidence that the fixed point covers the paths the oracle samples —
// and all the ones it cannot.

// randomProblem mirrors the generator of internal/core's property
// tests: a random structured program with TAKE/STEAL/GIVE scattered
// over its statement nodes.
func randomProblem(t testing.TB, seed int64) (*interval.Graph, *core.Init, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	prog := progen.Generate(seed, progen.Config{
		Stmts:    10 + r.Intn(25),
		MaxDepth: 3,
	})
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("seed %d: cfg: %v", seed, err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatalf("seed %d: interval: %v", seed, err)
	}
	const universe = 3
	init := core.NewInit(len(g.Nodes), universe)
	for _, n := range g.Nodes {
		if n.Block.Kind != cfg.KStmt {
			continue
		}
		for item := 0; item < universe; item++ {
			switch r.Intn(10) {
			case 0:
				init.AddTake(n, bitset.Of(universe, item))
			case 1:
				init.AddSteal(n, bitset.Of(universe, item))
			case 2:
				init.AddGive(n, bitset.Of(universe, item))
			}
		}
	}
	return g, init, universe
}

// crosscheck solves one problem, runs both checkers, and asserts the
// agreement contract on the result.
func crosscheck(t *testing.T, label string, g *interval.Graph, init *core.Init, u int) {
	t.Helper()
	s := core.MustSolve(g, u, init)
	res := check.Verify(&check.Problem{Name: label, Graph: g, Universe: u, Init: init, Sol: s})
	bounded := core.Verify(s, init, core.VerifyConfig{CheckSafety: true, MaxPaths: 1500})

	for _, d := range res.Errors() {
		t.Errorf("%s: static verifier rejects solver output: %s", label, d)
	}
	if res.Ok() && len(bounded) > 0 {
		t.Errorf("%s: static pass but bounded counterexample: %v", label, bounded[0])
	}
}

// TestCrosscheckCorpus runs the agreement contract on every testdata
// program, both placement problems.
func TestCrosscheckCorpus(t *testing.T) {
	for _, file := range corpusFiles(t) {
		a := analyzeFile(t, file)
		if a.Read != nil {
			crosscheck(t, "READ "+file, a.Graph, a.ReadInit, a.Universe.Size())
		}
		if a.Write != nil {
			crosscheck(t, "WRITE "+file, a.RevGraph, a.WriteInit, a.Universe.Size())
		}
	}
}

// TestCrosscheckProgen runs the agreement contract on 200 seeded random
// programs, each in both graph orientations (BEFORE and AFTER).
func TestCrosscheckProgen(t *testing.T) {
	if testing.Short() {
		t.Skip("crosscheck corpus is slow in -short mode")
	}
	for seed := int64(0); seed < 200; seed++ {
		g, init, u := randomProblem(t, seed)
		crosscheck(t, "BEFORE", g, init, u)
		rev, err := interval.Reverse(g)
		if err != nil {
			t.Fatalf("seed %d: reverse: %v", seed, err)
		}
		crosscheck(t, "AFTER", rev, init, u)
		if t.Failed() {
			t.Fatalf("seed %d: crosscheck failed", seed)
		}
	}
}
