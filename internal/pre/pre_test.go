package pre

import (
	"testing"

	"givetake/internal/cfg"
	"givetake/internal/frontend"
)

func buildPRE(t *testing.T, src string) (*Problem, []string) {
	t.Helper()
	prog, err := frontend.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, names := BuildProblem(g)
	return p, names
}

func insertCount(p *Problem, pl *Placement) int {
	n := 0
	for _, b := range p.G.Blocks {
		n += pl.Insert[b.ID].Count()
	}
	return n
}

func redundantCount(p *Problem, pl *Placement) int {
	n := 0
	for _, b := range p.G.Blocks {
		n += pl.Redundant[b.ID].Count()
	}
	return n
}

// Straight-line common subexpression: b+c computed twice; all three
// analyses should find the second computation redundant.
func TestCommonSubexpression(t *testing.T) {
	src := `
x = b + c
y = b + c
`
	p, names := buildPRE(t, src)
	if len(names) != 1 {
		t.Fatalf("universe = %v, want 1 expression", names)
	}
	for _, run := range []struct {
		name string
		pl   *Placement
	}{
		{"LCM", p.LazyCodeMotion()},
		{"MR", p.MorelRenvoise()},
	} {
		if got := redundantCount(p, run.pl); got < 1 {
			t.Errorf("%s: redundant = %d, want ≥ 1", run.name, got)
		}
	}
	gnt, _, err := p.GiveNTake()
	if err != nil {
		t.Fatal(err)
	}
	if got := redundantCount(p, gnt); got != 1 {
		t.Errorf("GNT: redundant = %d, want 1", got)
	}
	if got := insertCount(p, gnt); got != 1 {
		t.Errorf("GNT: inserts = %d, want 1", got)
	}
}

// A kill between the two computations makes the second one necessary.
func TestKillBlocksReuse(t *testing.T) {
	src := `
x = b + c
b = 1
y = b + c
`
	p, _ := buildPRE(t, src)
	for _, run := range []struct {
		name string
		pl   *Placement
	}{
		{"LCM", p.LazyCodeMotion()},
		{"MR", p.MorelRenvoise()},
	} {
		if got := redundantCount(p, run.pl); got != 0 {
			t.Errorf("%s: redundant = %d, want 0 (killed between)", run.name, got)
		}
	}
	gnt, _, err := p.GiveNTake()
	if err != nil {
		t.Fatal(err)
	}
	if got := redundantCount(p, gnt); got != 0 {
		t.Errorf("GNT: redundant = %d, want 0", got)
	}
	if got := insertCount(p, gnt); got != 2 {
		t.Errorf("GNT: inserts = %d, want 2 (one per computation)", got)
	}
}

// Partial redundancy across a branch: b+c computed on one arm and after
// the join; PRE inserts on the other arm so the join use is covered.
func TestPartialRedundancy(t *testing.T) {
	src := `
if c then
    x = b + c
else
    y = 1
endif
z = b + c
`
	p, _ := buildPRE(t, src)
	for _, run := range []struct {
		name string
		pl   *Placement
	}{
		{"LCM", p.LazyCodeMotion()},
		{"MR", p.MorelRenvoise()},
	} {
		if got := redundantCount(p, run.pl); got < 1 {
			t.Errorf("%s: partially redundant use not removed (redundant = %d)", run.name, got)
		}
	}
	gnt, _, err := p.GiveNTake()
	if err != nil {
		t.Fatal(err)
	}
	if got := redundantCount(p, gnt); got < 1 {
		t.Errorf("GNT: redundant = %d, want ≥ 1", got)
	}
}

// The paper's motivating difference (§1): a loop-invariant expression in
// a potentially zero-trip DO loop. The classical frameworks are safe and
// must recompute inside the loop; GIVE-N-TAKE hoists above it.
func TestZeroTripLoopInvariant(t *testing.T) {
	src := `
do i = 1, n
    x(i) = b + c
enddo
`
	p, _ := buildPRE(t, src)
	depths := LoopDepths(p.G)

	// where does the transformed program actually evaluate b+c?
	deepestComputation := func(pl *Placement) int {
		d := -1
		for id, set := range p.Computations(pl) {
			if !set.IsEmpty() && depths[id] > d {
				d = depths[id]
			}
		}
		return d
	}

	lcm := p.LazyCodeMotion()
	if d := deepestComputation(lcm); d < 1 {
		t.Fatalf("LCM must stay inside the zero-trip loop, computation depth = %d", d)
	}
	gnt, _, err := p.GiveNTake()
	if err != nil {
		t.Fatal(err)
	}
	if d := deepestComputation(gnt); d != 0 {
		t.Fatalf("GIVE-N-TAKE should hoist above the loop, computation depth = %d", d)
	}
}

// Loop-invariant code motion in a nested loop: GNT hoists out of both
// levels.
func TestNestedLoopInvariant(t *testing.T) {
	src := `
do i = 1, n
    do j = 1, n
        x(j) = b + c
    enddo
enddo
`
	p, _ := buildPRE(t, src)
	gnt, _, err := p.GiveNTake()
	if err != nil {
		t.Fatal(err)
	}
	depths := LoopDepths(p.G)
	for id, set := range p.Computations(gnt) {
		if !set.IsEmpty() && depths[id] != 0 {
			t.Fatalf("computation at depth %d, want full hoist:\n%v", depths[id], p.G.Blocks[id])
		}
	}
}

// LCM never inserts where the value is not anticipated (safety): check
// on a branchy program that no insert lands on a path that does not use
// the expression.
func TestLCMSafety(t *testing.T) {
	src := `
if c then
    x = b + c
endif
y = 2
`
	p, _ := buildPRE(t, src)
	lcm := p.LazyCodeMotion()
	// inserting anywhere outside the then-branch would be unsafe; with a
	// single use the only legal "insert" is the use itself (dropped as
	// isolated) — so no inserts at blocks dominating the branch
	dom := p.G.DomTree()
	var branch *cfg.Block
	for _, b := range p.G.Blocks {
		if b.Kind == cfg.KBranch {
			branch = b
		}
	}
	for _, b := range p.G.Blocks {
		if !lcm.Insert[b.ID].IsEmpty() && dom.Dominates(b, branch) {
			t.Fatalf("unsafe hoist above the branch at %v", b)
		}
	}
}

func TestLoopDepths(t *testing.T) {
	p, _ := buildPRE(t, `
x = 1
do i = 1, n
    y = 2
    do j = 1, n
        z = 3
    enddo
enddo
`)
	depths := LoopDepths(p.G)
	max := 0
	for _, d := range depths {
		if d > max {
			max = d
		}
	}
	if max != 2 {
		t.Fatalf("max loop depth = %d, want 2", max)
	}
	if depths[p.G.Entry.ID] != 0 {
		t.Fatal("entry should be at depth 0")
	}
}
