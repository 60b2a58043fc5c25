package interval_test

import (
	"testing"

	"givetake/internal/cfg"
	"givetake/internal/interval"
	"givetake/internal/progen"
)

// fromCFGNsPerNode times interval.FromCFG on a generated program of the
// given size and returns nanoseconds per interval node.
func fromCFGNsPerNode(t *testing.T, stmts int) float64 {
	t.Helper()
	c, err := cfg.Build(progen.Generate(42, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true}))
	if err != nil {
		t.Fatal(err)
	}
	var nodes int
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := interval.FromCFG(c)
			if err != nil {
				b.Fatal(err)
			}
			nodes = len(g.Nodes)
		}
	})
	if res.N == 0 {
		t.Fatalf("FromCFG benchmark at %d statements failed", stmts)
	}
	return float64(res.NsPerOp()) / float64(nodes)
}

// TestFromCFGScales guards the linear bound of interval construction
// (paper §5.2): growing the program eightfold may not grow the cost per
// node more than threefold. Answering dominance by walking idom chains
// grew it about 8.6×; the numbered dominator tree keeps it near 1.4×.
func TestFromCFGScales(t *testing.T) {
	small := fromCFGNsPerNode(t, 1000)
	large := fromCFGNsPerNode(t, 8000)
	t.Logf("FromCFG: %.0f ns/node at 1000 statements, %.0f at 8000 (%.2f×)", small, large, large/small)
	if large > 3*small {
		t.Fatalf("FromCFG ns/node grew %.2f× from 1000 to 8000 statements, want at most 3×", large/small)
	}
}
