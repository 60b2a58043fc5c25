package interval

import (
	"testing"

	"givetake/internal/cfg"
)

// The reversed view (paper §5.3) used by AFTER problems.

func TestReverseRolesSwap(t *testing.T) {
	g := buildGraph(t, `
a = 1
do i = 1, n
    x = 2
    y = 3
enddo
b = 4
`)
	rev, err := Reverse(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Reversed {
		t.Fatal("Reversed flag unset")
	}
	if len(rev.Nodes) != len(g.Nodes) {
		t.Fatal("node count changed")
	}
	// every original edge appears reversed with the mapped type
	want := map[EdgeType]EdgeType{Entry: Cycle, Cycle: Entry, Forward: Forward, Jump: Jump, Synthetic: Synthetic}
	origEdges := 0
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			origEdges++
			rn := rev.Nodes[e.To.ID]
			found := false
			for _, re := range rn.Out {
				if re.To.ID == e.From.ID && re.Type == want[e.Type] {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %v-%v(%v) not reversed correctly", e.From, e.To, e.Type)
			}
		}
	}
	revEdges := 0
	for _, n := range rev.Nodes {
		revEdges += len(n.Out)
	}
	if revEdges != origEdges {
		t.Fatalf("edge count changed: %d vs %d", revEdges, origEdges)
	}

	// the original first child becomes the reversed last child and the
	// original latch becomes the reversed entry sink
	for _, n := range g.Nodes {
		if !n.IsHeader {
			continue
		}
		var firstChild *Node
		for _, e := range n.Out {
			if e.Type == Entry {
				firstChild = e.To
			}
		}
		rh := rev.Nodes[n.ID]
		if rh.LastChild == nil || rh.LastChild.ID != firstChild.ID {
			t.Fatalf("reversed LASTCHILD(%v) = %v, want original first child %v",
				rh, rh.LastChild, firstChild)
		}
		if rl := rev.Nodes[n.LastChild.ID]; rl.EntryHeader == nil || rl.EntryHeader.ID != n.ID {
			t.Fatalf("original latch should become reversed first child")
		}
	}

	// levels and parents preserved
	for _, n := range g.Nodes {
		rn := rev.Nodes[n.ID]
		if rn.Level != n.Level {
			t.Fatalf("level changed for %v", n)
		}
		if (n.Parent == g.Root) != (rn.Parent == rev.Root) {
			t.Fatalf("parent root-ness changed for %v", n)
		}
	}
}

func TestReversePreorderValid(t *testing.T) {
	g := buildGraph(t, fig11)
	rev, err := Reverse(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Preorder) != len(rev.Nodes) {
		t.Fatal("preorder incomplete")
	}
	for _, n := range rev.Nodes {
		for _, e := range n.Out {
			if e.Type != Cycle && e.From.Pre >= e.To.Pre {
				t.Fatalf("forward order violated: %v -> %v", e.From, e.To)
			}
		}
	}
}

func TestReverseNoHoistOnJumpLoops(t *testing.T) {
	g := buildGraph(t, fig11)
	rev, err := Reverse(g)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for i, n := range g.Nodes {
		if n.IsHeader {
			// the i-loop contains the jump: its reversed header is guarded
			hasJump := false
			for _, m := range members(g, n) {
				for _, e := range m.Out {
					if e.Type == Jump {
						hasJump = true
					}
				}
			}
			if hasJump != rev.Nodes[i].NoHoist {
				t.Fatalf("NoHoist(%v) = %v, want %v", n, rev.Nodes[i].NoHoist, hasJump)
			}
			if rev.Nodes[i].NoHoist {
				marked++
			}
		}
	}
	if marked != 1 {
		t.Fatalf("guarded headers = %d, want 1 (the i-loop)", marked)
	}
}

func TestReverseRejectsMultipleEntryEdges(t *testing.T) {
	// hand-build a loop whose header has two entry edges
	c := &cfg.Graph{}
	e := c.NewBlock(cfg.KEntry)
	h := c.NewBlock(cfg.KStmt)
	b1 := c.NewBlock(cfg.KStmt)
	b2 := c.NewBlock(cfg.KStmt)
	j := c.NewBlock(cfg.KJoin)
	x := c.NewBlock(cfg.KExit)
	c.Entry, c.Exit = e, x
	c.AddEdge(e, h)
	c.AddEdge(h, b1)
	c.AddEdge(h, b2) // second entry edge
	c.AddEdge(b1, j)
	c.AddEdge(b2, j)
	c.AddEdge(j, h) // back edge
	c.AddEdge(h, x)
	c.SplitCriticalEdges()
	g, err := FromCFG(c)
	if err != nil {
		t.Skipf("graph construction rejected earlier: %v", err)
	}
	if _, err := Reverse(g); err == nil {
		t.Fatal("Reverse should reject headers with multiple ENTRY edges")
	}
}

func TestIntervalMembership(t *testing.T) {
	g := buildGraph(t, `
do i = 1, n
    do j = 1, n
        x = 1
    enddo
enddo
`)
	var outer, inner *Node
	for _, n := range g.Nodes {
		if n.IsHeader {
			if n.Level == 1 {
				outer = n
			} else {
				inner = n
			}
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("headers not found")
	}
	if !InInterval(inner, outer) {
		t.Fatal("inner header should be in outer interval")
	}
	if InInterval(outer, inner) {
		t.Fatal("outer header not in inner interval")
	}
	all := members(g, g.Root)
	if len(all) != len(g.Nodes) {
		t.Fatalf("T(ROOT) = %d nodes, want all %d", len(all), len(g.Nodes))
	}
	for _, m := range members(g, outer) {
		if m.Level < 2 {
			t.Fatalf("T(outer) contains level-%d node %v", m.Level, m)
		}
	}
}

func TestGraphString(t *testing.T) {
	g := buildGraph(t, "x = 1")
	s := g.String()
	if len(s) == 0 {
		t.Fatal("empty graph dump")
	}
}

func TestEdgeTypeStrings(t *testing.T) {
	cases := map[EdgeType]string{Forward: "F", Entry: "E", Cycle: "C", Jump: "J", Synthetic: "S"}
	for et, want := range cases {
		if et.String() != want {
			t.Errorf("%v.String() = %q", int(et), et.String())
		}
	}
}
