package core

import (
	"context"
	"runtime/debug"
	"testing"

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

// A solve allocates a fixed number of objects whatever the program
// size: every variable is one slab, the equations' temporaries are
// scratch rows of one more, and nothing is allocated per node. The count
// must be equal at both sizes; a per-node allocation makes it grow.
//
// Each solve allocates its slabs afresh, so the measured runs would
// trigger collections, and a collection in the middle of a run can
// shift the runtime's malloc accounting by one object. The collector is
// off while measuring, so the count is exact.
func TestSolveAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for _, stmts := range []int{100, 1600} {
		g, init, u := scalingProblem(t, stmts)
		allocs[stmts] = testing.AllocsPerRun(5, func() {
			if _, err := SolveCtx(context.Background(), g, u, init); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d statements, %d nodes: %.0f allocs per solve", stmts, len(g.Nodes), allocs[stmts])
	}
	if allocs[100] != allocs[1600] {
		t.Fatalf("allocations grow with program size: %v allocs per solve at 100 statements, %v at 1600",
			allocs[100], allocs[1600])
	}
}
