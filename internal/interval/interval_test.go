package interval

import (
	"strings"
	"testing"

	"givetake/internal/cfg"
	"givetake/internal/frontend"
)

// fig11 is the code of paper Figure 11; Figure 12 shows its interval
// flow graph.
const fig11 = `
do i = 1, n
    y(a(i)) = ...
    if test(i) goto 77
enddo
do j = 1, n
    ... = ...
enddo
77 do k = 1, n
    ... = x(k+10) + y(b(k))
enddo
`

func buildGraph(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	g, err := FromCFG(c)
	if err != nil {
		t.Fatalf("interval: %v", err)
	}
	return g
}

// members returns T(h): every node whose Parent chain reaches h (all
// nodes for ROOT).
func members(g *Graph, h *Node) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if InInterval(n, h) {
			out = append(out, n)
		}
	}
	return out
}

// paperNum maps a node to its 1-based preorder number as used in the
// paper's Figure 12 discussion.
func paperNum(n *Node) int { return n.Pre + 1 }

// nodeByNum returns the node with the given 1-based preorder number.
func nodeByNum(g *Graph, num int) *Node { return g.Preorder[num-1] }

func edgeTypeBetween(t *testing.T, g *Graph, from, to int) EdgeType {
	t.Helper()
	f := nodeByNum(g, from)
	for _, e := range f.Out {
		if paperNum(e.To) == to {
			return e.Type
		}
	}
	t.Fatalf("no edge %d -> %d:\n%s", from, to, g)
	return 0
}

// TestFig12Structure checks the interval flow graph of Figure 12:
// 14 nodes in preorder, T(2) = {3,4,5}, the jump edge (4,10), the
// synthetic edge (2,10), and the levels/edge classes stated in §3.3.
func TestFig12Structure(t *testing.T) {
	g := buildGraph(t, fig11)
	if len(g.Nodes) != 14 {
		t.Fatalf("nodes = %d, want 14:\n%s", len(g.Nodes), g)
	}

	n2 := nodeByNum(g, 2)
	if !n2.IsHeader || n2.Block.Kind != cfg.KHeader {
		t.Fatalf("node 2 should be the i-loop header, got %v", n2)
	}
	// T(2) = {3, 4, 5}
	tn := members(g, n2)
	if len(tn) != 3 {
		t.Fatalf("|T(2)| = %d, want 3:\n%s", len(tn), g)
	}
	for _, m := range tn {
		if num := paperNum(m); num < 3 || num > 5 {
			t.Errorf("T(2) contains node %d, want only 3..5", num)
		}
		if m.Level != 2 {
			t.Errorf("node %d level = %d, want 2", paperNum(m), m.Level)
		}
	}
	if lc := paperNum(n2.LastChild); lc != 5 {
		t.Errorf("LASTCHILD(2) = %d, want 5", lc)
	}

	// headers at 2, 7, 12
	for _, num := range []int{2, 7, 12} {
		if !nodeByNum(g, num).IsHeader {
			t.Errorf("node %d should be a header:\n%s", num, g)
		}
	}
	// Edge classes from §3.3 / Fig. 12. Note: our preorder numbers the
	// jump landing pad 9 and the j-loop exit pad 10, the reverse of the
	// paper's figure; both orders satisfy the FORWARD+DOWNWARD partial
	// orders (the two pads are incomparable). Everything else matches.
	cases := []struct {
		from, to int
		want     EdgeType
	}{
		{1, 2, Forward},
		{2, 3, Entry},
		{3, 4, Forward},
		{4, 5, Forward},
		{5, 2, Cycle},
		{4, 9, Jump},
		{2, 9, Synthetic},
		{2, 6, Forward},
		{6, 7, Forward},
		{7, 8, Entry},
		{8, 7, Cycle},
		{7, 10, Forward},
		{9, 11, Forward},
		{10, 11, Forward},
		{11, 12, Forward},
		{12, 13, Entry},
		{13, 12, Cycle},
		{12, 14, Forward},
	}
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Out)
	}
	if total != len(cases) {
		t.Errorf("edge count = %d, want %d:\n%s", total, len(cases), g)
	}
	for _, c := range cases {
		if got := edgeTypeBetween(t, g, c.from, c.to); got != c.want {
			t.Errorf("edge (%d,%d) type = %v, want %v", c.from, c.to, got, c.want)
		}
	}

	// HEADER(n) is defined only for entry-edge sinks
	if h := nodeByNum(g, 3).EntryHeader; h != n2 {
		t.Errorf("HEADER(3) = %v, want node 2", h)
	}
	for _, num := range []int{4, 5} {
		if h := nodeByNum(g, num).EntryHeader; h != nil {
			t.Errorf("HEADER(%d) = %v, want nil", num, h)
		}
	}

	// the jump sink (our node 9) has only the jump edge as CEFJ pred
	if n9 := nodeByNum(g, 9); n9.CountPreds(CEFJ) != 1 {
		t.Errorf("jump sink should have exactly one real predecessor")
	}

	// top-level nodes sit at level 1 under the virtual ROOT
	for _, num := range []int{1, 2, 6, 7, 9, 10, 11, 12, 14} {
		n := nodeByNum(g, num)
		if n.Level != 1 || n.Parent != g.Root {
			t.Errorf("node %d: level %d parent %v, want level 1 under ROOT", num, n.Level, n.Parent)
		}
	}
	// CHILDREN(ROOT) are the level-1 nodes in preorder
	if len(g.Root.Children) != 9 {
		t.Errorf("ROOT children = %d, want 9", len(g.Root.Children))
	}
}

func TestNestedLoopLevels(t *testing.T) {
	g := buildGraph(t, `
do i = 1, n
    do j = 1, n
        x(i) = y(j)
    enddo
enddo
`)
	maxLevel := 0
	var inner *Node
	for _, n := range g.Nodes {
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
		if n.IsHeader && n.Level == 2 {
			inner = n
		}
	}
	if maxLevel != 3 {
		t.Fatalf("max level = %d, want 3:\n%s", maxLevel, g)
	}
	if inner == nil {
		t.Fatal("no inner header at level 2")
	}
	// inner latch funnels through a pad so the cycle source is unique
	if inner.LastChild == nil {
		t.Fatal("inner loop has no last child")
	}
	// CHILDREN(outer) contains the inner header
	outer := inner.Parent
	if outer == g.Root {
		t.Fatalf("inner header's parent should be the outer header")
	}
	found := false
	for _, c := range outer.Children {
		if c == inner {
			found = true
		}
	}
	if !found {
		t.Fatal("inner header not in CHILDREN(outer)")
	}
}

// TestJumpOutOfTwoLoops checks that a two-level jump generates
// LEVEL(m)−LEVEL(n) synthetic edges (paper §3.3).
func TestJumpOutOfTwoLoops(t *testing.T) {
	g := buildGraph(t, `
do i = 1, n
    do j = 1, n
        if test(j) goto 9
        x(j) = 1
    enddo
enddo
9 continue
`)
	var jumps, synth []Edge
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			switch e.Type {
			case Jump:
				jumps = append(jumps, e)
			case Synthetic:
				synth = append(synth, e)
			}
		}
	}
	if len(jumps) != 1 {
		t.Fatalf("jump edges = %d, want 1:\n%s", len(jumps), g)
	}
	j := jumps[0]
	want := j.From.Level - j.To.Level
	if len(synth) != want {
		t.Fatalf("synthetic edges = %d, want LEVEL(m)-LEVEL(n) = %d:\n%s", len(synth), want, g)
	}
	for _, e := range synth {
		if !e.From.IsHeader {
			t.Errorf("synthetic edge from non-header %v", e.From)
		}
		if e.To != j.To {
			t.Errorf("synthetic edge sink %v, want jump sink %v", e.To, j.To)
		}
	}
}

func TestPreorderInvariants(t *testing.T) {
	srcs := []string{
		fig11,
		"x = 1",
		"do i = 1, n\n do j = 1, n\n  do k = 1, n\n   x(k) = 1\n  enddo\n enddo\nenddo",
		"if c then\n do i = 1, n\n  x(i) = 1\n enddo\nelse\n y = 2\nendif",
	}
	for _, src := range srcs {
		g := buildGraph(t, src)
		for _, n := range g.Nodes {
			for _, e := range n.Out {
				if e.Type != Cycle && e.From.Pre >= e.To.Pre {
					t.Errorf("forward order violated on %v -> %v", e.From, e.To)
				}
				if e.Type == Cycle && e.From.Pre <= e.To.Pre {
					t.Errorf("cycle edge %v -> %v should go backwards in preorder", e.From, e.To)
				}
			}
			if n.Parent.Block != nil && n.Parent.Pre >= n.Pre {
				t.Errorf("downward order violated for %v", n)
			}
		}
	}
}

func TestIrreducibleRejected(t *testing.T) {
	g := &cfg.Graph{}
	e := g.NewBlock(cfg.KEntry)
	a := g.NewBlock(cfg.KStmt)
	b := g.NewBlock(cfg.KStmt)
	p := g.NewBlock(cfg.KStmt) // pre-pad so edges aren't critical
	q := g.NewBlock(cfg.KStmt)
	x := g.NewBlock(cfg.KExit)
	g.Entry, g.Exit = e, x
	g.AddEdge(e, p)
	g.AddEdge(e, q)
	g.AddEdge(p, a)
	g.AddEdge(q, b)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.AddEdge(b, x)
	// b now has 2 succs and a has 2 preds: split to stay critical-free
	g.SplitCriticalEdges()
	if _, err := FromCFG(g); err == nil {
		t.Fatal("irreducible graph should be rejected")
	}
}

func TestTypeSets(t *testing.T) {
	if !FJ.Has(Forward) || !FJ.Has(Jump) || FJ.Has(Entry) || FJ.Has(Cycle) {
		t.Error("FJ mask wrong")
	}
	if !CEFJ.Has(Cycle) || CEFJ.Has(Synthetic) {
		t.Error("CEFJ mask wrong")
	}
	if !All.Has(Synthetic) {
		t.Error("All mask wrong")
	}
}

func TestSuccsPredsFiltering(t *testing.T) {
	g := buildGraph(t, fig11)
	n2 := nodeByNum(g, 2)
	if got := n2.Succs(E, nil); len(got) != 1 || paperNum(got[0]) != 3 {
		t.Errorf("SUCCS^E(2) = %v", got)
	}
	if got := n2.Preds(C, nil); len(got) != 1 || paperNum(got[0]) != 5 {
		t.Errorf("PREDS^C(2) = %v", got)
	}
	n9 := nodeByNum(g, 9) // the jump landing pad in our numbering
	if got := n9.Preds(S, nil); len(got) != 1 || paperNum(got[0]) != 2 {
		t.Errorf("PREDS^S(jump pad) = %v", got)
	}
	if got := n9.Preds(FJ, nil); len(got) != 1 || paperNum(got[0]) != 4 {
		t.Errorf("PREDS^FJ(jump pad) = %v", got)
	}
}

// deadCode has an unreachable labeled statement: cfg.Compact prunes its
// anchor and its block, which keep their old IDs. Those stale IDs equal
// the renumbered IDs of the live blocks "9 continue" and "s = 2".
const deadCode = `
goto 9
8 t = 1
9 continue
s = 2
`

// NodeFor answers nil for a pruned block, on the forward and the
// reversed graph, even though the block's stale ID indexes a live node.
func TestNodeForPrunedBlock(t *testing.T) {
	prog, err := frontend.Parse(deadCode)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromCFG(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reverse(g)
	if err != nil {
		t.Fatal(err)
	}
	dead := c.StmtBlock[prog.Body[1]]
	if dead == nil {
		t.Fatal("no block recorded for the dead statement")
	}
	if dead.ID < 0 || dead.ID >= len(c.Blocks) || c.Blocks[dead.ID] == dead {
		t.Fatalf("dead block %v: want a stale ID that indexes a live block of\n%s", dead, c)
	}
	for _, gr := range []*Graph{g, r} {
		if n := gr.NodeFor(dead); n != nil {
			t.Errorf("reversed=%v: NodeFor(pruned %v) = %v, want nil", gr.Reversed, dead, n)
		}
		live := c.Blocks[dead.ID]
		if n := gr.NodeFor(live); n == nil || n.Block != live {
			t.Errorf("reversed=%v: NodeFor(%v) = %v, want its node", gr.Reversed, live, n)
		}
	}
}

// FromCFG rejects a graph whose block IDs are not their indices: the
// node and side tables are indexed by block ID.
func TestFromCFGRejectsNonDenseIDs(t *testing.T) {
	prog, err := frontend.Parse(fig11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	c.Blocks[1].ID, c.Blocks[2].ID = c.Blocks[2].ID, c.Blocks[1].ID
	if _, err := FromCFG(c); err == nil || !strings.Contains(err.Error(), "IDs must equal indices") {
		t.Fatalf("FromCFG with swapped block IDs: err = %v, want the dense-ID error", err)
	}
}
