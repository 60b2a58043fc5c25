package cfg

import (
	"strings"
	"testing"

	"givetake/internal/frontend"
	"givetake/internal/ir"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func countKind(g *Graph, k Kind) int {
	n := 0
	for _, b := range g.Blocks {
		if b.Kind == k {
			n++
		}
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x = 1\ny = 2\nz = 3")
	if len(g.Blocks) != 5 { // entry, 3 stmts, exit
		t.Fatalf("blocks = %d, want 5\n%s", len(g.Blocks), g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// chain shape
	cur := g.Entry
	for i := 0; i < 4; i++ {
		if len(cur.Succs) != 1 {
			t.Fatalf("%v has %d succs", cur, len(cur.Succs))
		}
		cur = cur.Succs[0]
	}
	if cur != g.Exit {
		t.Fatalf("chain does not end at exit")
	}
}

func TestDoLoopShape(t *testing.T) {
	g := build(t, "do i = 1, n\n x = 1\nenddo\ny = 2")
	var h *Block
	for _, b := range g.Blocks {
		if b.Kind == KHeader {
			h = b
		}
	}
	if h == nil {
		t.Fatal("no header block")
	}
	if len(h.Succs) != 2 {
		t.Fatalf("header succs = %d, want 2 (body, exit)", len(h.Succs))
	}
	body := h.Succs[0]
	if body.Kind != KStmt {
		t.Fatalf("Succs[0] = %v, want body stmt", body)
	}
	if len(body.Succs) != 1 || body.Succs[0] != h {
		t.Fatalf("body should have single back edge to header, got %v", body.Succs)
	}
	if !g.Reducible() {
		t.Fatal("loop graph should be reducible")
	}
	if be := g.BackEdges(); len(be) != 1 || be[0][1] != h {
		t.Fatalf("back edges = %v", be)
	}
}

func TestEmptyDoLoopGetsContinueBody(t *testing.T) {
	g := build(t, "do i = 1, n\nenddo")
	var h *Block
	for _, b := range g.Blocks {
		if b.Kind == KHeader {
			h = b
		}
	}
	if h == nil || len(h.Succs) != 2 {
		t.Fatalf("header shape wrong: %v", h)
	}
	if _, ok := h.Succs[0].Stmt.(*ir.Continue); !ok {
		t.Fatalf("empty loop body should be a continue node, got %v", h.Succs[0])
	}
}

func TestIfElseJoinAndNoCriticalEdges(t *testing.T) {
	g := build(t, "if c then\n x = 1\nelse\n y = 2\nendif\nz = 3")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if countKind(g, KBranch) != 1 || countKind(g, KJoin) != 1 {
		t.Fatalf("want 1 branch and 1 join:\n%s", g)
	}
	if countKind(g, KPad) != 0 {
		t.Fatalf("two-armed if with single-succ arms needs no pads:\n%s", g)
	}
}

func TestOneArmedIfGetsSyntheticElse(t *testing.T) {
	// Paper §3.3 / Figure 3: the edge branch→join is critical (branch has
	// 2 succs, join has 2 preds), so a pad — the "added else branch" —
	// must appear.
	g := build(t, "if c then\n x = 1\nendif\nz = 3")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if countKind(g, KPad) != 1 {
		t.Fatalf("want exactly 1 pad (synthetic else):\n%s", g)
	}
}

// TestFig12Shape checks that the code of paper Figure 11 lowers to the
// 14-node interval flow graph of Figure 12: entry, i-loop header, assign,
// branch, join-latch, pad(i-exit), j-header, j-body, pad(j-exit),
// pad(jump), anchor 77, k-header, k-body, exit.
func TestFig12Shape(t *testing.T) {
	g := build(t, `
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
`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 14 {
		t.Fatalf("blocks = %d, want 14:\n%s", len(g.Blocks), g)
	}
	if got := countKind(g, KPad); got != 3 {
		t.Fatalf("pads = %d, want 3 (i-exit, j-exit, jump landing):\n%s", got, g)
	}
	if got := countKind(g, KHeader); got != 3 {
		t.Fatalf("headers = %d, want 3:\n%s", got, g)
	}
	if got := countKind(g, KAnchor); got != 1 {
		t.Fatalf("anchors = %d, want 1:\n%s", got, g)
	}
	// The jump landing pad: a pad whose predecessor is the branch.
	var br *Block
	for _, b := range g.Blocks {
		if b.Kind == KBranch {
			br = b
		}
	}
	if br == nil {
		t.Fatal("no branch")
	}
	foundJumpPad := false
	for _, s := range br.Succs {
		if s.Kind == KPad {
			foundJumpPad = true
			if len(s.Preds) != 1 {
				t.Fatalf("jump pad %v should have a single pred", s)
			}
		}
	}
	if !foundJumpPad {
		t.Fatalf("branch %v should reach the label through a pad: %v", br, br.Succs)
	}
	if !g.Reducible() {
		t.Fatal("graph should be reducible")
	}
	if be := g.BackEdges(); len(be) != 3 {
		t.Fatalf("back edges = %d, want 3", len(be))
	}
}

func TestGotoSkipsDeadCode(t *testing.T) {
	g := build(t, "goto 9\nx = 1\n9 continue\ny = 2")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// x = 1 is unreachable and must be pruned.
	for _, b := range g.Blocks {
		if b.Kind == KStmt {
			if a, ok := b.Stmt.(*ir.Assign); ok {
				if id, ok := a.LHS.(*ir.Ident); ok && id.Name == "x" {
					t.Fatalf("dead assignment not pruned:\n%s", g)
				}
			}
		}
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, `
do i = 1, n
    do j = 1, n
        x(i) = y(j)
    enddo
enddo
`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := countKind(g, KHeader); got != 2 {
		t.Fatalf("headers = %d, want 2", got)
	}
	if be := g.BackEdges(); len(be) != 2 {
		t.Fatalf("back edges = %d, want 2", len(be))
	}
	if !g.Reducible() {
		t.Fatal("should be reducible")
	}
}

func TestDominators(t *testing.T) {
	g := build(t, "if c then\n x = 1\nelse\n y = 2\nendif\nz = 3")
	idom := g.Dominators()
	var br, join *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case KBranch:
			br = b
		case KJoin:
			join = b
		}
	}
	if idom[join.ID] != br {
		t.Fatalf("idom(join) = %v, want branch %v", idom[join.ID], br)
	}
	dom := g.DomTree()
	if !dom.Dominates(g.Entry, join) {
		t.Fatal("entry should dominate join")
	}
	if dom.Dominates(join, br) {
		t.Fatal("join should not dominate branch")
	}
}

func TestIrreducibleDetection(t *testing.T) {
	// Hand-built irreducible graph: entry → a, entry → b, a ⇄ b, b → exit.
	g := &Graph{}
	e := g.NewBlock(KEntry)
	a := g.NewBlock(KStmt)
	b := g.NewBlock(KStmt)
	x := g.NewBlock(KExit)
	g.Entry, g.Exit = e, x
	g.AddEdge(e, a)
	g.AddEdge(e, b)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.AddEdge(b, x)
	if g.Reducible() {
		t.Fatal("two-entry cycle must be irreducible")
	}
}

func TestSplitCriticalEdgesIdempotent(t *testing.T) {
	g := build(t, `
if c then
    x = 1
endif
do i = 1, n
    if d then
        y = 2
    endif
enddo
`)
	if n := g.SplitCriticalEdges(); n != 0 {
		t.Fatalf("second split pass found %d critical edges", n)
	}
}

func TestBuildFig1(t *testing.T) {
	g := build(t, `
distributed x(100)
do i = 1, n
    y(i) = ...
enddo
if test then
    do j = 1, n
        z(j) = ...
    enddo
    do k = 1, n
        ... = x(a(k))
    enddo
else
    do l = 1, n
        ... = x(a(l))
    enddo
endif
`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := countKind(g, KHeader); got != 4 {
		t.Fatalf("headers = %d, want 4", got)
	}
	if !g.Reducible() {
		t.Fatal("should be reducible")
	}
}

// Validate rejects a graph whose block IDs are not their indices in
// Blocks, and an edge from a block outside the graph.
func TestValidateRejectsBadIDs(t *testing.T) {
	g := build(t, "x = 1\ny = 2")
	g.Blocks[1].ID = 7
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "IDs must equal indices") {
		t.Fatalf("ID 7 at index 1: err = %v, want the dense-ID error", err)
	}
	g.Blocks[1].ID = 1

	// a stranger block with a live block's ID
	stranger := &Block{ID: 2, Kind: KStmt}
	g.Blocks[2].Preds = append(g.Blocks[2].Preds, stranger)
	stranger.Succs = []*Block{g.Blocks[2]}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "predecessor outside graph") {
		t.Fatalf("pred outside the graph: err = %v, want it rejected", err)
	}
}
