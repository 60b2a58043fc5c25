package core

import (
	"context"
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/interval"
	"givetake/internal/progen"
)

// scalingProblem builds the generated problem of BenchmarkScaling: a
// program of stmts statements, one consumer per statement and a steal at
// every seventh, over a 64-item universe.
func scalingProblem(t testing.TB, stmts int) (*interval.Graph, *Init, int) {
	c, err := cfg.Build(progen.Generate(42, progen.Config{Stmts: stmts, MaxDepth: 4}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatal(err)
	}
	const universe = 64
	init := NewInit(len(g.Nodes), universe)
	for i, n := range g.Nodes {
		if n.Block.Kind == cfg.KStmt {
			init.Take.At(n.ID).Add(i % universe)
			if i%7 == 0 {
				init.Steal.At(n.ID).Add((i + 3) % universe)
			}
		}
	}
	return g, init, universe
}

// With a warmed arena, a solve allocates a fixed number of headers and
// nothing per node: every variable is one slab carved from the arena,
// and the equations' temporaries are scratch rows.
func TestSolveAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, stmts := range []int{100, 1600} {
		g, init, u := scalingProblem(t, stmts)
		var ar bitset.Arena
		solve := func() {
			if _, err := SolveIn(context.Background(), g, u, init, &ar); err != nil {
				t.Fatal(err)
			}
			ar.Reset()
		}
		solve() // size the arena
		allocs[stmts] = testing.AllocsPerRun(5, solve)
		t.Logf("%d statements, %d nodes: %.0f allocs per solve", stmts, len(g.Nodes), allocs[stmts])
	}
	if allocs[100] != allocs[1600] {
		t.Fatalf("allocations grow with program size: %v allocs per solve at 100 statements, %v at 1600",
			allocs[100], allocs[1600])
	}
}
