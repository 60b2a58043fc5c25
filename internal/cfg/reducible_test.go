package cfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// irreducibleDiamond builds the classic two-entry cycle:
// entry → a → x ⇄ y, entry → b → y, {x,y} → exit.
func irreducibleDiamond() (*Graph, *Block, *Block) {
	g := &Graph{}
	e := g.NewBlock(KEntry)
	a := g.NewBlock(KStmt)
	b := g.NewBlock(KStmt)
	x := g.NewBlock(KStmt)
	y := g.NewBlock(KStmt)
	exit := g.NewBlock(KExit)
	g.Entry, g.Exit = e, exit
	g.AddEdge(e, a)
	g.AddEdge(e, b)
	g.AddEdge(a, x)
	g.AddEdge(b, y)
	g.AddEdge(x, y)
	g.AddEdge(y, x)
	g.AddEdge(y, exit)
	return g, x, y
}

func TestMakeReducibleDiamond(t *testing.T) {
	g, _, _ := irreducibleDiamond()
	if g.Reducible() {
		t.Fatal("diamond should start irreducible")
	}
	before := len(g.Blocks)
	if err := g.MakeReducible(0); err != nil {
		t.Fatal(err)
	}
	if !g.Reducible() {
		t.Fatal("graph still irreducible after MakeReducible")
	}
	if len(g.Blocks) <= before {
		t.Fatal("splitting should have added blocks")
	}
	// edges stay consistent
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %v -> %v lost its pred link", b, s)
			}
		}
	}
}

func TestMakeReducibleNoOpOnReducible(t *testing.T) {
	g := build(t, "do i = 1, n\n x = 1\nenddo")
	before := len(g.Blocks)
	if err := g.MakeReducible(0); err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != before {
		t.Fatal("reducible graph must not be modified")
	}
}

// irreducibleNested puts an irreducible pair inside a natural loop:
// h → {x ⇄ y entered from two places inside the loop} → h.
func irreducibleNested() *Graph {
	g := &Graph{}
	e := g.NewBlock(KEntry)
	h := g.NewBlock(KStmt) // acts as loop header
	a := g.NewBlock(KStmt)
	b := g.NewBlock(KStmt)
	x := g.NewBlock(KStmt)
	y := g.NewBlock(KStmt)
	latch := g.NewBlock(KStmt)
	exit := g.NewBlock(KExit)
	g.Entry, g.Exit = e, exit
	g.AddEdge(e, h)
	g.AddEdge(h, a)
	g.AddEdge(h, b)
	g.AddEdge(a, x)
	g.AddEdge(b, y)
	g.AddEdge(x, y)
	g.AddEdge(y, x)
	g.AddEdge(y, latch)
	g.AddEdge(latch, h)
	g.AddEdge(latch, exit)
	return g
}

func TestMakeReducibleNested(t *testing.T) {
	g := irreducibleNested()
	if g.Reducible() {
		t.Fatal("nested construction should be irreducible")
	}
	if err := g.MakeReducible(0); err != nil {
		t.Fatal(err)
	}
	if !g.Reducible() {
		t.Fatal("still irreducible")
	}
}

// TestMakeReducibleRandom: random graphs (possibly irreducible) all
// become reducible within the split budget.
func TestMakeReducibleRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		// node splitting is worst-case exponential; a clean budget error
		// is acceptable on adversarial dense graphs, a hang is not
		if err := g.MakeReducible(120); err != nil {
			t.Logf("seed %d: budget: %v", seed, err)
			return true
		}
		return g.Reducible()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a chain entry → … → exit with random extra
// forward and backward edges, so it is often irreducible.
func randomGraph(r *rand.Rand) *Graph {
	g := &Graph{}
	e := g.NewBlock(KEntry)
	g.Entry = e
	n := 4 + r.Intn(8)
	nodes := []*Block{e}
	for i := 0; i < n; i++ {
		nodes = append(nodes, g.NewBlock(KStmt))
	}
	exit := g.NewBlock(KExit)
	g.Exit = exit
	nodes = append(nodes, exit)
	// random forward and backward edges; keep everything reachable
	for i := 0; i < len(nodes)-1; i++ {
		g.AddEdge(nodes[i], nodes[i+1])
	}
	for k := 0; k < n; k++ {
		from := nodes[1+r.Intn(len(nodes)-2)]
		to := nodes[1+r.Intn(len(nodes)-2)]
		if from == to || from == exit || to == e {
			continue
		}
		dup := false
		for _, s := range from.Succs {
			if s == to {
				dup = true
			}
		}
		if !dup {
			g.AddEdge(from, to)
		}
	}
	return g
}
