package core

import (
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/frontend"
	"givetake/internal/interval"
)

// This file reproduces the paper's worked example: the READ problem on
// the code of Figure 11 over the flow graph of Figure 12, with the
// dataflow variable values listed throughout §4. The universe is
// {x_k, y_a, y_b} for the references x(k+10), y(a(i)), y(b(k)).
const (
	xk = iota // x(k+10)
	ya        // y(a(i))
	yb        // y(b(k))
	universeSize
)

var itemName = map[int]string{xk: "x_k", ya: "y_a", yb: "y_b"}

const fig11Src = `
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

// fig12 builds the interval graph and a map from the paper's node
// numbers (1–14, Figure 12) to nodes, identified structurally so the
// test does not depend on preorder tie-breaking (our preorder swaps the
// paper's nodes 9 and 10, which the partial orders leave unordered).
func fig12(t *testing.T) (*interval.Graph, map[int]*interval.Node) {
	t.Helper()
	prog, err := frontend.Parse(fig11Src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatal(err)
	}
	m := map[int]*interval.Node{}
	var iHdr, jHdr, kHdr, branch *interval.Node
	for _, n := range g.Nodes {
		if n.Block.Kind == cfg.KHeader {
			switch n.Block.Loop.Var {
			case "i":
				iHdr = n
			case "j":
				jHdr = n
			case "k":
				kHdr = n
			}
		}
		if n.Block.Kind == cfg.KBranch {
			branch = n
		}
	}
	if iHdr == nil || jHdr == nil || kHdr == nil || branch == nil {
		t.Fatalf("could not identify loop headers/branch:\n%s", g)
	}
	for _, n := range g.Nodes {
		switch {
		case n.Block.Kind == cfg.KEntry:
			m[1] = n
		case n == iHdr:
			m[2] = n
		case n.Block.Kind == cfg.KStmt && n.Parent == iHdr:
			m[3] = n
		case n == branch:
			m[4] = n
		case n.Block.Kind == cfg.KJoin:
			m[5] = n
		case n.Block.Kind == cfg.KPad && n.In[0].From == iHdr:
			m[6] = n
		case n == jHdr:
			m[7] = n
		case n.Parent == jHdr:
			m[8] = n
		case n.Block.Kind == cfg.KPad && n.In[0].From == jHdr:
			m[9] = n
		case n.Block.Kind == cfg.KPad:
			m[10] = n // the jump landing pad (pred = branch)
		case n.Block.Kind == cfg.KAnchor:
			m[11] = n
		case n == kHdr:
			m[12] = n
		case n.Parent == kHdr:
			m[13] = n
		case n.Block.Kind == cfg.KExit:
			m[14] = n
		}
	}
	if len(m) != 14 {
		t.Fatalf("identified %d of 14 paper nodes:\n%s", len(m), g)
	}
	// sanity: the jump landing pad's predecessor is the branch
	if m[10].In[0].From != m[4] {
		t.Fatalf("node 10 should be the jump landing pad")
	}
	return g, m
}

// fig12Init builds the READ-problem initial sets of §4.1:
// STEAL_init(3) = {y_b}, GIVE_init(3) = {y_a}, TAKE_init(13) = {x_k,y_b}.
func fig12Init(g *interval.Graph, m map[int]*interval.Node) *Init {
	init := NewInit(len(g.Nodes), universeSize)
	init.AddSteal(m[3], bitset.Of(universeSize, yb))
	init.AddGive(m[3], bitset.Of(universeSize, ya))
	init.AddTake(m[13], bitset.Of(universeSize, xk, yb))
	return init
}

// expectation: item ∈ variable exactly at the listed paper nodes.
type expectation struct {
	name  string
	v     func(s *Solution) bitset.Slab
	item  int
	nodes []int
}

func checkExact(t *testing.T, s *Solution, m map[int]*interval.Node, e expectation) {
	t.Helper()
	want := map[int]bool{}
	for _, n := range e.nodes {
		want[n] = true
	}
	vs := e.v(s)
	for num := 1; num <= 14; num++ {
		got := vs.At(m[num].ID).Has(e.item)
		if got != want[num] {
			t.Errorf("%s: %s at node %d = %v, want %v", e.name, itemName[e.item], num, got, want[num])
		}
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func cat(lists ...[]int) []int {
	var out []int
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// TestFig12GoldenValues checks every §4 example value against the solver.
func TestFig12GoldenValues(t *testing.T) {
	g, m := fig12(t)
	s := MustSolve(g, universeSize, fig12Init(g, m))

	steal := func(s *Solution) bitset.Slab { return s.Steal }
	block := func(s *Solution) bitset.Slab { return s.Block }
	takenOut := func(s *Solution) bitset.Slab { return s.TakenOut }
	take := func(s *Solution) bitset.Slab { return s.Take }
	takenIn := func(s *Solution) bitset.Slab { return s.TakenIn }
	blockLoc := func(s *Solution) bitset.Slab { return s.BlockLoc }
	takeLoc := func(s *Solution) bitset.Slab { return s.TakeLoc }
	stealLoc := func(s *Solution) bitset.Slab { return s.StealLoc }
	givenInE := func(s *Solution) bitset.Slab { return s.Eager.GivenIn }
	givenE := func(s *Solution) bitset.Slab { return s.Eager.Given }
	givenOutE := func(s *Solution) bitset.Slab { return s.Eager.GivenOut }
	givenInL := func(s *Solution) bitset.Slab { return s.Lazy.GivenIn }
	givenL := func(s *Solution) bitset.Slab { return s.Lazy.Given }
	givenOutL := func(s *Solution) bitset.Slab { return s.Lazy.GivenOut }
	resInE := func(s *Solution) bitset.Slab { return s.Eager.ResIn }
	resInL := func(s *Solution) bitset.Slab { return s.Lazy.ResIn }

	exps := []expectation{
		// §4.2, propagating consumption
		{"STEAL", steal, yb, []int{2, 3}},
		{"STEAL", steal, xk, nil},
		{"STEAL", steal, ya, nil},
		// The paper lists y_a, y_b ∈ BLOCK({2,3}); Eq. 3 additionally puts
		// x_k and y_b into BLOCK(12), because GIVE(12) inherits
		// GIVE_loc(LASTCHILD(12)) = TAKE(13) — consumption counts as
		// production for blocking purposes (§4.3).
		{"BLOCK", block, ya, []int{2, 3}},
		{"BLOCK", block, yb, []int{2, 3, 12}},
		{"BLOCK", block, xk, []int{12}},
		{"TAKEN_out", takenOut, xk, cat([]int{1, 2, 6, 7}, seq(9, 11))},
		{"TAKEN_out", takenOut, yb, cat([]int{2, 6, 7}, seq(9, 11))},
		{"TAKE", take, xk, []int{12, 13}},
		{"TAKE", take, yb, []int{12, 13}},
		{"TAKE", take, ya, nil},
		{"TAKEN_in", takenIn, xk, cat([]int{1, 2, 6, 7}, seq(9, 13))},
		{"TAKEN_in", takenIn, yb, cat([]int{6, 7}, seq(9, 13))},
		{"BLOCK_loc", blockLoc, ya, seq(1, 3)},
		{"BLOCK_loc", blockLoc, yb, seq(1, 3)},
		{"TAKE_loc", takeLoc, xk, cat([]int{1, 2, 6, 7}, seq(9, 13))},
		{"TAKE_loc", takeLoc, yb, cat([]int{6, 7}, seq(9, 13))},
		// §4.3, blocking consumption
		// The paper's list also names node 14, but that contradicts its
		// own Eq. 10: y_b ∈ GIVE_loc(12) (TAKE(12) resupplies it), so the
		// subtraction drops y_b on the way to 14. We follow the equation.
		{"STEAL_loc", stealLoc, yb, cat(seq(2, 7), seq(9, 12))},
		// §4.4, placing production (eager)
		{"GIVEN_in/e", givenInE, xk, seq(2, 14)},
		{"GIVEN_in/e", givenInE, ya, seq(4, 14)},
		{"GIVEN_in/e", givenInE, yb, cat(seq(7, 9), seq(11, 14))},
		{"GIVEN/e", givenE, xk, seq(1, 14)},
		{"GIVEN/e", givenE, ya, seq(4, 14)},
		{"GIVEN/e", givenE, yb, seq(6, 14)},
		{"GIVEN_out/e", givenOutE, xk, seq(1, 14)},
		{"GIVEN_out/e", givenOutE, ya, seq(2, 14)},
		{"GIVEN_out/e", givenOutE, yb, seq(6, 14)},
		// §4.4, placing production (lazy)
		{"GIVEN_in/l", givenInL, xk, []int{13, 14}},
		{"GIVEN_in/l", givenInL, ya, seq(4, 14)},
		{"GIVEN_in/l", givenInL, yb, []int{13, 14}},
		{"GIVEN/l", givenL, xk, seq(12, 14)},
		{"GIVEN/l", givenL, ya, seq(4, 14)},
		{"GIVEN/l", givenL, yb, seq(12, 14)},
		{"GIVEN_out/l", givenOutL, xk, seq(12, 14)},
		{"GIVEN_out/l", givenOutL, ya, seq(2, 14)},
		{"GIVEN_out/l", givenOutL, yb, seq(12, 14)},
		// §4.5, results: the READ_Send's and READ_Recv's of Figure 14
		{"RES_in/e", resInE, xk, []int{1}},
		{"RES_in/e", resInE, yb, []int{6, 10}},
		{"RES_in/e", resInE, ya, nil},
		{"RES_in/l", resInL, xk, []int{12}},
		{"RES_in/l", resInL, yb, []int{12}},
		{"RES_in/l", resInL, ya, nil},
	}
	for _, e := range exps {
		checkExact(t, s, m, e)
	}

	// §4.2 GIVE values implied by the text: node 3 gives y_a (GIVE_init),
	// node 2 inherits it through GIVE_loc(LASTCHILD(2)).
	for _, num := range []int{2, 3} {
		if !s.Give.At(m[num].ID).Has(ya) {
			t.Errorf("GIVE: y_a missing at node %d", num)
		}
	}

	// §4.3 GIVE_loc: the paper lists y_a at {2..7, 9..11} and x_k,y_b at
	// {12..14}. We check those memberships positively (the equations also
	// propagate y_a into 12 and 14 via the Eq. 9 meet over node 11, which
	// the paper's list omits; both are harmless availability facts).
	for _, num := range cat(seq(2, 7), seq(9, 11)) {
		if !s.GiveLoc.At(m[num].ID).Has(ya) {
			t.Errorf("GIVE_loc: y_a missing at node %d", num)
		}
	}
	for _, num := range seq(12, 14) {
		if !s.GiveLoc.At(m[num].ID).Has(xk) || !s.GiveLoc.At(m[num].ID).Has(yb) {
			t.Errorf("GIVE_loc: x_k/y_b missing at node %d", num)
		}
	}
	if s.GiveLoc.At(m[1].ID).Has(ya) {
		t.Errorf("GIVE_loc: y_a should not reach node 1")
	}

	// §4.5: "there is no production needed on exit" — RES_out empty
	// everywhere, both modes.
	for num := 1; num <= 14; num++ {
		for _, mode := range []Mode{Eager, Lazy} {
			if !s.Place(mode).ResOut.At(m[num].ID).IsEmpty() {
				t.Errorf("RES_out/%v at node %d = %v, want empty", mode,
					num, s.Place(mode).ResOut.At(m[num].ID).StringWith(func(i int) string { return itemName[i] }))
			}
		}
	}
}

// TestFig12EquationEvalsLinear confirms each equation runs once per node:
// the 10 mode-independent equations once, the 5 placement equations once
// per mode, i.e. 20 evaluations per node.
func TestFig12EquationEvalsLinear(t *testing.T) {
	g, m := fig12(t)
	s := MustSolve(g, universeSize, fig12Init(g, m))
	want := int64(20 * len(g.Nodes))
	if s.Stats.EquationEvals != want {
		t.Fatalf("equation evaluations = %d, want %d", s.Stats.EquationEvals, want)
	}
}
