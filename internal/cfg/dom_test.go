package cfg

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"givetake/internal/progen"
)

// reachable returns the blocks reachable from entry without passing
// through skip (nil skips nothing; skip == entry reaches nothing).
func reachable(g *Graph, skip *Block) []bool {
	seen := make([]bool, len(g.Blocks))
	if g.Entry == skip {
		return seen
	}
	seen[g.Entry.ID] = true
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s != skip && !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// bruteDominators is the definition of dominance: a dominates b iff
// a == b, or b is reachable from entry and stops being reachable once a
// is removed.
func bruteDominators(g *Graph) [][]bool {
	all := reachable(g, nil)
	dom := make([][]bool, len(g.Blocks))
	for _, a := range g.Blocks {
		without := reachable(g, a)
		dom[a.ID] = make([]bool, len(g.Blocks))
		for _, b := range g.Blocks {
			dom[a.ID][b.ID] = a == b || (all[b.ID] && !without[b.ID])
		}
	}
	return dom
}

// chainDominates is the idom-chain walk that DomTree replaced, kept as
// a second opinion on Reducible.
func chainDominates(idom []*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// chainReducible is Reducible answered with chainDominates.
func chainReducible(g *Graph) bool {
	idom := g.Dominators()
	indeg := make([]int, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !chainDominates(idom, s, b) {
				indeg[s.ID]++
			}
		}
	}
	var queue []*Block
	for _, b := range g.Blocks {
		if indeg[b.ID] == 0 {
			queue = append(queue, b)
		}
	}
	removed := 0
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, s := range b.Succs {
			if !chainDominates(idom, s, b) {
				if indeg[s.ID]--; indeg[s.ID] == 0 {
					queue = append(queue, s)
				}
			}
		}
	}
	return removed == len(g.Blocks)
}

// checkDomTree compares DomTree on every block pair against the
// definition, checks the idoms it is built from against it, and checks
// Reducible against the chain-walk version.
func checkDomTree(t *testing.T, label string, g *Graph) {
	t.Helper()
	want := bruteDominators(g)
	dom := g.DomTree()
	idom := g.Dominators()
	live := reachable(g, nil)
	for _, a := range g.Blocks {
		for _, b := range g.Blocks {
			if got := dom.Dominates(a, b); got != want[a.ID][b.ID] {
				t.Fatalf("%s: Dominates(%v, %v) = %t, want %t", label, a, b, got, want[a.ID][b.ID])
			}
		}
	}
	for _, b := range g.Blocks {
		id := idom[b.ID]
		switch {
		case !live[b.ID]:
			if id != nil {
				t.Fatalf("%s: unreachable %v has idom %v", label, b, id)
			}
		case b == g.Entry:
			if id != b {
				t.Fatalf("%s: idom(entry) = %v", label, id)
			}
		default:
			// idom(b) strictly dominates b, and so dominates every other
			// strict dominator of b
			if id == nil || id == b || !want[id.ID][b.ID] {
				t.Fatalf("%s: idom(%v) = %v does not strictly dominate it", label, b, id)
			}
			for _, a := range g.Blocks {
				if a != b && want[a.ID][b.ID] && !want[a.ID][id.ID] {
					t.Fatalf("%s: %v dominates %v but not its idom %v", label, a, b, id)
				}
			}
		}
	}
	if got, old := g.Reducible(), chainReducible(g); got != old {
		t.Fatalf("%s: Reducible = %t, chain-walk version says %t", label, got, old)
	}
}

// unreachableGraph has a live path entry → a → exit, a dead block d
// feeding a, and a dead cycle u ⇄ v entered from d.
func unreachableGraph() *Graph {
	g := &Graph{}
	e := g.NewBlock(KEntry)
	a := g.NewBlock(KStmt)
	d := g.NewBlock(KStmt)
	u := g.NewBlock(KStmt)
	v := g.NewBlock(KStmt)
	exit := g.NewBlock(KExit)
	g.Entry, g.Exit = e, exit
	g.AddEdge(e, a)
	g.AddEdge(a, exit)
	g.AddEdge(d, a)
	g.AddEdge(d, u)
	g.AddEdge(u, v)
	g.AddEdge(v, u)
	g.AddEdge(v, exit)
	return g
}

// TestDomTreeOracle checks DomTree against the definition of dominance
// on the testdata corpus, generated programs, the hand-built
// irreducible graphs, random graphs before and after node splitting,
// and graphs with unreachable blocks.
func TestDomTreeOracle(t *testing.T) {
	var files []string
	for _, pat := range []string{"../../testdata/*.f", "../../testdata/kernels/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		checkDomTree(t, file, build(t, string(src)))
	}
	for seed := int64(0); seed < 30; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 20 + int(seed)*7, MaxDepth: 4, PGoto: 0.3})
		g, err := Build(prog)
		if err != nil {
			t.Fatalf("progen %d: %v", seed, err)
		}
		checkDomTree(t, fmt.Sprintf("progen%d", seed), g)
	}
	diamond, _, _ := irreducibleDiamond()
	checkDomTree(t, "diamond", diamond)
	checkDomTree(t, "nested", irreducibleNested())
	for seed := int64(0); seed < 50; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		checkDomTree(t, fmt.Sprintf("random%d", seed), g)
		if g.MakeReducible(120) == nil {
			checkDomTree(t, fmt.Sprintf("random%d/split", seed), g)
		}
	}
	checkDomTree(t, "unreachable", unreachableGraph())
}

// TestDomTreeDeepChain builds a straight-line graph far deeper than any
// recursive walk of the dominator tree should be asked to go.
func TestDomTreeDeepChain(t *testing.T) {
	g := &Graph{}
	prev := g.NewBlock(KEntry)
	g.Entry = prev
	const n = 100000
	for i := 0; i < n; i++ {
		b := g.NewBlock(KStmt)
		g.AddEdge(prev, b)
		prev = b
	}
	g.Exit = prev
	dom := g.DomTree()
	if !dom.Dominates(g.Entry, g.Exit) || dom.Dominates(g.Exit, g.Entry) {
		t.Fatal("entry must dominate the end of the chain and not the reverse")
	}
	if mid := g.Blocks[n/2]; !dom.Dominates(mid, g.Exit) || dom.Dominates(g.Exit, mid) {
		t.Fatal("a chain block must dominate every later block only")
	}
}

// graphFromBytes builds an arbitrary graph: data[0] picks the block
// count, each following byte pair one edge. Self-loops, duplicate
// edges, edges into the entry and unreachable blocks are all allowed.
func graphFromBytes(data []byte) *Graph {
	g := &Graph{}
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 24)
	}
	for i := 0; i < n; i++ {
		g.NewBlock(KStmt)
	}
	g.Entry, g.Exit = g.Blocks[0], g.Blocks[n-1]
	for i := 1; i+1 < len(data) && i < 160; i += 2 {
		g.AddEdge(g.Blocks[int(data[i])%n], g.Blocks[int(data[i+1])%n])
	}
	return g
}

// FuzzDomTree checks DomTree against the definition of dominance, and
// Reducible against the chain-walk version, on arbitrary graphs.
func FuzzDomTree(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4})       // diamond
	f.Add([]byte{5, 0, 1, 0, 2, 1, 2, 2, 1, 2, 4})       // two-entry cycle
	f.Add([]byte{6, 0, 1, 1, 2, 2, 1, 3, 1, 3, 4, 4, 5}) // loop plus dead block
	f.Add([]byte{4, 0, 0, 1, 1, 1, 0, 2, 3})             // self-loops, edge into entry
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDomTree(t, fmt.Sprintf("%v", data), graphFromBytes(data))
	})
}
