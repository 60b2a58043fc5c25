package core

import (
	"strings"
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/frontend"
	"givetake/internal/interval"
)

// scenario is a small test harness: a program, an item universe of size
// one (item 0, "x"), and init sets attached to statements located by a
// substring of their printed form.
type scenario struct {
	t    *testing.T
	g    *interval.Graph
	init *Init
	u    int
}

func newScenario(t *testing.T, src string) *scenario {
	t.Helper()
	prog, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatalf("interval: %v", err)
	}
	return &scenario{t: t, g: g, init: NewInit(len(g.Nodes), 1), u: 1}
}

// node returns the unique node whose printed block description contains
// substr.
func (sc *scenario) node(substr string) *interval.Node {
	sc.t.Helper()
	var found *interval.Node
	for _, n := range sc.g.Nodes {
		if strings.Contains(n.Block.String(), substr) {
			if found != nil {
				sc.t.Fatalf("node %q is ambiguous (%v and %v)", substr, found, n)
			}
			found = n
		}
	}
	if found == nil {
		sc.t.Fatalf("no node matching %q in:\n%s", substr, sc.g)
	}
	return found
}

func (sc *scenario) one() *bitset.Set { return bitset.Of(sc.u, 0) }

func (sc *scenario) take(substr string)  { sc.init.AddTake(sc.node(substr), sc.one()) }
func (sc *scenario) steal(substr string) { sc.init.AddSteal(sc.node(substr), sc.one()) }
func (sc *scenario) give(substr string)  { sc.init.AddGive(sc.node(substr), sc.one()) }

func (sc *scenario) solve() *Solution { return MustSolve(sc.g, sc.u, sc.init) }

// solveVerified solves and checks C1/C3/O1 (and C2 on ≥1-trip paths) on
// all bounded paths.
func (sc *scenario) solveVerified() *Solution {
	sc.t.Helper()
	s := sc.solve()
	if vs := Verify(s, sc.init, VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		for _, v := range vs {
			sc.t.Errorf("violation: %v", v)
		}
		sc.t.Fatalf("placement failed verification;\n%s", sc.g)
	}
	return s
}

// resNodes returns the descriptions of nodes with nonempty RES_in or
// RES_out in the given mode.
func resNodes(s *Solution, m Mode) (in, out []string) {
	p := s.Place(m)
	for _, n := range s.Graph.Preorder {
		if !p.ResIn.At(n.ID).IsEmpty() {
			in = append(in, n.Block.String())
		}
		if !p.ResOut.At(n.ID).IsEmpty() {
			out = append(out, n.Block.String())
		}
	}
	return
}

func (sc *scenario) expectResIn(s *Solution, m Mode, substrs ...string) {
	sc.t.Helper()
	in, _ := resNodes(s, m)
	if len(in) != len(substrs) {
		sc.t.Fatalf("%v RES_in at %v, want %d sites %v", m, in, len(substrs), substrs)
	}
	for i, sub := range substrs {
		if !strings.Contains(in[i], sub) {
			sc.t.Errorf("%v RES_in[%d] = %q, want containing %q", m, i, in[i], sub)
		}
	}
}

// --- Figure 5 / criterion C2 (safety): a consumer that exists only on
// one branch must not trigger production on the other.
func TestSafetyProductionStaysInBranch(t *testing.T) {
	sc := newScenario(t, `
if c then
    s = x(1)
endif
r = 2
`)
	sc.take("s = x(1)")
	s := sc.solveVerified()
	// Production must sit on the then side (at the consumer), not at
	// entry and not on the synthetic else.
	sc.expectResIn(s, Eager, "s = x(1)")
	sc.expectResIn(s, Lazy, "s = x(1)")
}

// --- Figure 6 / criterion C3 (sufficiency): a consumer reached by two
// paths needs production on both (here: hoisted above the branch).
func TestSufficiencyBothPaths(t *testing.T) {
	sc := newScenario(t, `
if c then
    a = 1
else
    b = 2
endif
s = x(1)
`)
	sc.take("s = x(1)")
	s := sc.solveVerified()
	// One producer before the consumer suffices; eagerness pulls it to
	// the program entry.
	sc.expectResIn(s, Eager, "entry")
	sc.expectResIn(s, Lazy, "s = x(1)")
}

// --- Figure 7 / criterion O1: consecutive consumers share one production.
func TestNoReproduction(t *testing.T) {
	sc := newScenario(t, `
s = x(1)
t = x(2)
r = x(3)
`)
	sc.take("s = x(1)")
	sc.take("t = x(2)")
	sc.take("r = x(3)")
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
	sc.expectResIn(s, Lazy, "s = x(1)") // latest point still before all consumers
}

// --- Figure 8 / criterion O2: consumers on both branches and beyond get
// one hoisted producer, not three.
func TestFewProducers(t *testing.T) {
	sc := newScenario(t, `
if c then
    s = x(1)
else
    t = x(2)
endif
r = x(3)
`)
	sc.take("s = x(1)")
	sc.take("t = x(2)")
	sc.take("r = x(3)")
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
	if in, _ := resNodes(s, Lazy); len(in) != 2 {
		t.Fatalf("lazy RES_in sites = %v, want one per branch", in)
	}
}

// --- Figures 9/10 / criteria O3, O3': eager production as early as
// possible, lazy as late as possible.
func TestEagerEarlyLazyLate(t *testing.T) {
	sc := newScenario(t, `
a = 1
b = 2
s = x(1)
`)
	sc.take("s = x(1)")
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
	sc.expectResIn(s, Lazy, "s = x(1)")
}

// --- Figure 4 / criterion C1 (balance) exercised by the verifier on a
// shape where one branch's production region closes earlier than the
// other's (the §3.3 discussion of Figure 3's else branch).
func TestBalanceAcrossBranches(t *testing.T) {
	sc := newScenario(t, `
if c then
    a = 1
    s = x(1)
else
    b = 2
endif
r = x(2)
`)
	sc.take("s = x(1)")
	sc.take("r = x(2)")
	// solveVerified asserts C1 on every path, which is the point.
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
}

// --- Zero-trip loop hoisting (paper §1, §2): consumption inside a DO
// loop hoists production above the loop even though the loop may run
// zero times.
func TestZeroTripHoist(t *testing.T) {
	sc := newScenario(t, `
a = 1
do i = 1, n
    s = x(i)
enddo
`)
	sc.take("s = x(i)")
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
	// The lazy producer lands at the loop construct (header entry =
	// immediately before the DO), not inside the body.
	sc.expectResIn(s, Lazy, "header")
}

// --- NoHoist pins production inside the loop (§4.1).
func TestNoHoistKeepsProductionInside(t *testing.T) {
	sc := newScenario(t, `
a = 1
do i = 1, n
    s = x(i)
enddo
`)
	sc.take("s = x(i)")
	sc.node("header").NoHoist = true
	s := sc.solve()
	// With hoisting suppressed, production sits at the consumer inside
	// the loop; safety now holds even on zero-trip paths.
	sc.expectResIn(s, Eager, "s = x(i)")
	sc.expectResIn(s, Lazy, "s = x(i)")
	if vs := Verify(s, sc.init, VerifyConfig{CheckSafety: true, Trips: []int{0, 1, 2}}); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// --- Loop-invariant motion: a loop-invariant consumer inside a loop is
// produced once outside, not once per iteration (message vectorization).
func TestLoopInvariantMotion(t *testing.T) {
	sc := newScenario(t, `
do i = 1, n
    s = x(5)
    t = x(5)
enddo
`)
	sc.take("s = x(5)")
	sc.take("t = x(5)")
	s := sc.solveVerified()
	sc.expectResIn(s, Eager, "entry")
	sc.expectResIn(s, Lazy, "header")
}

// --- STEAL inside a loop forces per-iteration re-production.
func TestStealForcesReproduction(t *testing.T) {
	sc := newScenario(t, `
do i = 1, n
    y(i) = 0
    s = x(i)
enddo
`)
	sc.steal("y(i) = 0")
	sc.take("s = x(i)")
	s := sc.solveVerified()
	// Production cannot be hoisted past the steal: it must sit between
	// the steal and the consumer, inside the loop.
	sc.expectResIn(s, Eager, "s = x(i)")
	sc.expectResIn(s, Lazy, "s = x(i)")
}

// --- GIVE side effects (§3.1): a free production satisfies the consumer
// with no generated code at all.
func TestGiveComesForFree(t *testing.T) {
	sc := newScenario(t, `
y(1) = 7
s = x(1)
`)
	sc.give("y(1) = 7")
	sc.take("s = x(1)")
	s := sc.solveVerified()
	for _, m := range []Mode{Eager, Lazy} {
		if in, out := resNodes(s, m); len(in)+len(out) != 0 {
			t.Fatalf("%v production generated despite GIVE: in=%v out=%v", m, in, out)
		}
	}
}

// --- GIVE on one branch only: the other branch still needs production,
// and balance must hold at the merge (the Figure 3 discussion in §3.3).
func TestGiveOnOneBranch(t *testing.T) {
	sc := newScenario(t, `
if c then
    y(1) = 7
else
    b = 2
endif
s = x(1)
`)
	sc.give("y(1) = 7")
	sc.take("s = x(1)")
	s := sc.solveVerified()
	// Production must appear on the else side only.
	in, _ := resNodes(s, Eager)
	if len(in) != 1 {
		t.Fatalf("eager RES_in sites = %v, want exactly one (the else side)", in)
	}
	if strings.Contains(in[0], "y(1)") {
		t.Fatalf("production placed on the giving branch: %v", in)
	}
}

// --- AFTER problem: a definition of non-owned data must be written back
// after it happens; production follows consumption.
func TestAfterProblemBasic(t *testing.T) {
	sc := newScenario(t, `
a = 1
x(1) = 5
b = 2
`)
	sc.take("x(1) = 5") // the def consumes (needs a later write-back)
	rev, err := interval.Reverse(sc.g)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSolve(rev, sc.u, sc.init)
	if vs := Verify(s, sc.init, VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
	// In reversed orientation the "entry" is the original exit: the
	// eager producer (WRITE_Recv as early as... = as late as possible in
	// original time? no — eager on the reversed graph is earliest in
	// reversed time, i.e. latest in original time).
	p := s.Place(Eager)
	exitNode := rev.NodeFor(sc.node("exit").Block)
	if !p.ResIn.At(exitNode.ID).Has(0) {
		t.Fatalf("eager AFTER production should land at original exit; dump:\n%s",
			s.Dump(func(i int) string { return "x" }))
	}
	lazyNode := rev.NodeFor(sc.node("x(1) = 5").Block)
	if !s.Place(Lazy).ResIn.At(lazyNode.ID).Has(0) {
		t.Fatalf("lazy AFTER production should sit right after the def; dump:\n%s",
			s.Dump(func(i int) string { return "x" }))
	}
}

// --- AFTER problem with a DO loop: write-back of a def inside a loop is
// sunk below the loop (vectorized), mirroring the BEFORE hoist.
func TestAfterProblemLoopSink(t *testing.T) {
	sc := newScenario(t, `
do i = 1, n
    x(i) = 5
enddo
b = 2
`)
	sc.take("x(i) = 5")
	rev, err := interval.Reverse(sc.g)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSolve(rev, sc.u, sc.init)
	if vs := Verify(s, sc.init, VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Lazy in reversed time = earliest in original time = right at the
	// loop construct's reversed entry... assert instead the stronger
	// user-visible property: no production inside the loop body.
	for _, m := range []Mode{Eager, Lazy} {
		p := s.Place(m)
		body := rev.NodeFor(sc.node("x(i) = 5").Block)
		if p.ResIn.At(body.ID).Has(0) || p.ResOut.At(body.ID).Has(0) {
			t.Fatalf("%v AFTER production not sunk out of loop; dump:\n%s", m,
				s.Dump(func(i int) string { return "x" }))
		}
	}
}

// --- Figure 16 / §5.3: an AFTER problem on a program with a jump out of
// a loop. The reversed graph has a jump into the loop; production must
// not be hoisted into the loop header (which would be unsafe on the
// bypassing path).
func TestAfterProblemJumpGuard(t *testing.T) {
	sc := newScenario(t, `
do i = 1, n
    x(i) = 5
    if test(i) goto 9
enddo
9 b = 2
`)
	sc.take("x(i) = 5")
	rev, err := interval.Reverse(sc.g)
	if err != nil {
		t.Fatal(err)
	}
	// the loop header must carry the §5.3 guard
	hdr := rev.NodeFor(sc.node("header").Block)
	if !hdr.NoHoist {
		t.Fatal("reversed loop with jump edge should be NoHoist")
	}
	s := MustSolve(rev, sc.u, sc.init)
	// Correctness (C1 balance, C3 sufficiency) must hold. Optimality O1
	// is not judged here: the paper itself notes its §5.3 treatment
	// "prevents unsafe code generation [but] may miss some otherwise
	// legal optimizations".
	for _, v := range Verify(s, sc.init, VerifyConfig{}) {
		t.Errorf("violation: %v", v)
	}
}

// --- Verifier self-test: a deliberately broken placement must be caught.
func TestVerifierCatchesInsufficiency(t *testing.T) {
	sc := newScenario(t, `
a = 1
s = x(1)
`)
	sc.take("s = x(1)")
	s := sc.solve()
	// sabotage: erase all production
	for _, m := range []Mode{Eager, Lazy} {
		p := s.Place(m)
		for id := 0; id < p.ResIn.Rows(); id++ {
			p.ResIn.At(id).Clear()
			p.ResOut.At(id).Clear()
		}
	}
	vs := Verify(s, sc.init, VerifyConfig{})
	foundC3 := false
	for _, v := range vs {
		if v.Criterion == "C3" {
			foundC3 = true
		}
	}
	if !foundC3 {
		t.Fatalf("verifier missed missing production: %v", vs)
	}
}

func TestVerifierCatchesImbalance(t *testing.T) {
	sc := newScenario(t, `
a = 1
s = x(1)
`)
	sc.take("s = x(1)")
	s := sc.solve()
	// sabotage: add a second eager production right before the consumer
	n := sc.g.NodeFor(sc.node("s = x(1)").Block)
	s.Eager.ResIn.At(n.ID).Add(0)
	vs := Verify(s, sc.init, VerifyConfig{})
	found := false
	for _, v := range vs {
		if v.Criterion == "C1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("verifier missed double production: %v", vs)
	}
}

// --- The full Figure 1 READ placement: one vectorized producer, hoisted
// to the top, receives on both branches (Figure 2 right).
func TestFig1ReadPlacement(t *testing.T) {
	sc := newScenario(t, `
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
	// x(a(k)) and x(a(l)) are the same value-numbered item.
	sc.take("x(a(k))")
	sc.take("x(a(l))")
	s := sc.solveVerified()
	// Eager: exactly one send, at program entry (hoisted above the
	// i-loop for latency hiding).
	sc.expectResIn(s, Eager, "entry")
	// Lazy: one receive per branch, before the k-loop and before the
	// l-loop.
	in, _ := resNodes(s, Lazy)
	if len(in) != 2 {
		t.Fatalf("lazy RES_in sites = %v, want 2 (one per branch)", in)
	}
}

func TestDumpRendersAllVariables(t *testing.T) {
	sc := newScenario(t, "a = 1\ns = x(1)")
	sc.take("s = x(1)")
	s := sc.solve()
	dump := s.Dump(func(int) string { return "x" })
	for _, want := range []string{"STEAL", "TAKEN_out", "GIVE_loc", "GIVEN_in/eager",
		"RES_in/lazy", "RES_out/eager", "BLOCK_loc"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestModeString(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" {
		t.Fatal("mode strings")
	}
}

func TestViolationString(t *testing.T) {
	sc := newScenario(t, "s = x(1)")
	sc.take("s = x(1)")
	s := sc.solve()
	for _, m := range []Mode{Eager, Lazy} {
		for id := 0; id < s.Place(m).ResIn.Rows(); id++ {
			s.Place(m).ResIn.At(id).Clear()
		}
	}
	vs := Verify(s, sc.init, VerifyConfig{})
	if len(vs) == 0 {
		t.Fatal("expected violations")
	}
	if str := vs[0].String(); !strings.Contains(str, "C3") {
		t.Fatalf("violation string %q", str)
	}
	if len(vs[0].Path) == 0 {
		t.Fatal("violation should carry its path")
	}
}
