// Package core implements the GIVE-N-TAKE balanced code placement
// framework of von Hanxleden and Kennedy (PLDI '94): given per-node
// consumption (TAKE_init), destruction (STEAL_init), and free production
// (GIVE_init) over a finite item universe, it computes where production
// must be placed so that
//
//	(C1) balance:     the EAGER and LAZY solutions match — along every
//	                  path each production is started and stopped once;
//	(C2) safety:      everything produced is consumed (zero-trip loops
//	                  excepted, unless hoisting is suppressed);
//	(C3) sufficiency: every consumer is preceded by a production on all
//	                  incoming paths with no destruction in between;
//
// while producing as little and as rarely as possible (O1–O3'). The
// solver evaluates the fifteen dataflow equations of the paper's
// Figure 13 exactly once per node over a Tarjan interval flow graph,
// following the pass structure of Figure 15, for a total of O(E)
// bit-vector steps.
//
// BEFORE problems (production precedes consumption, e.g. READ messages,
// prefetches, classical PRE) run on the interval graph as built; AFTER
// problems (production follows consumption, e.g. WRITE-backs) run on the
// interval.Reverse view, with entry/exit meanings swapped.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"givetake/internal/bitset"
	"givetake/internal/interval"
	"givetake/internal/obs"
)

// ErrInvariant is the sentinel for a broken one-pass O(E) invariant:
// some equation group was about to be evaluated a second time at a
// node. Detect it with errors.Is(err, ErrInvariant); the concrete
// error is an *InvariantError naming the group and node.
var ErrInvariant = errors.New("core: one-pass O(E) invariant broken")

// InvariantError reports which equation group was re-evaluated where.
// It is returned (never panicked) by Solve and SolveCtx.
type InvariantError struct {
	Group string // equation group name, e.g. "Eqs.1-8"
	Node  int    // interval node ID
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: %s re-evaluated at node %d (one-pass O(E) invariant broken)", e.Group, e.Node)
}

// Is makes errors.Is(err, ErrInvariant) succeed for InvariantError.
func (e *InvariantError) Is(target error) bool { return target == ErrInvariant }

// Mode selects the production schedule of a solution.
type Mode int

const (
	// Eager places production as early as possible — for a BEFORE
	// problem, the send side of a communication (criterion O3).
	Eager Mode = iota
	// Lazy places production as late as possible — for a BEFORE problem,
	// the receive side (criterion O3').
	Lazy
)

func (m Mode) String() string {
	if m == Eager {
		return "eager"
	}
	return "lazy"
}

// Init supplies the initial dataflow variables (paper §4.1): one slab
// row per interval node ID, every row over the problem's universe.
type Init struct {
	// Take holds TAKE_init(n): the consumers at n.
	Take bitset.Slab
	// Steal holds STEAL_init(n): items whose production is voided at n.
	Steal bitset.Slab
	// Give holds GIVE_init(n): items produced at n "for free" as a side
	// effect (they satisfy later consumers without generated code).
	Give bitset.Slab
}

// NewInit returns an Init with an empty row for each of the given
// number of nodes, over a universe of universe items.
func NewInit(nodes, universe int) *Init {
	return &Init{
		Take:  bitset.NewSlab(nodes, universe),
		Steal: bitset.NewSlab(nodes, universe),
		Give:  bitset.NewSlab(nodes, universe),
	}
}

// AddTake unions items into TAKE_init(n).
func (in *Init) AddTake(n *interval.Node, items *bitset.Set) {
	in.Take.At(n.ID).UnionWith(items)
}

// AddSteal unions items into STEAL_init(n).
func (in *Init) AddSteal(n *interval.Node, items *bitset.Set) {
	in.Steal.At(n.ID).UnionWith(items)
}

// AddGive unions items into GIVE_init(n).
func (in *Init) AddGive(n *interval.Node, items *bitset.Set) {
	in.Give.At(n.ID).UnionWith(items)
}

// fits reports whether in has one row per node of an n-node graph over
// the given universe.
func (in *Init) fits(n, universe int) bool {
	for _, v := range [3]bitset.Slab{in.Take, in.Steal, in.Give} {
		if v.Rows() != n || v.Universe() != universe {
			return false
		}
	}
	return true
}

// Placement holds the §4.4–4.5 variables of one mode, one row per node
// ID.
type Placement struct {
	GivenIn  bitset.Slab // GIVEN_in(n), availability at node entry
	Given    bitset.Slab // GIVEN(n), availability at the node itself
	GivenOut bitset.Slab // GIVEN_out(n), availability at node exit
	ResIn    bitset.Slab // RES_in(n), production generated at node entry
	ResOut   bitset.Slab // RES_out(n), production generated at node exit
}

// Solution carries every dataflow variable of a solved problem. The
// variables shared between modes (§4.2–4.3, sets S1 and S2) appear once;
// the placement variables (§4.4–4.5) appear per mode. Each variable is
// one pointer-free slab with a row per node ID; At(id) views a row as a
// *bitset.Set.
type Solution struct {
	Graph    *interval.Graph
	Universe int

	// S1 variables (Eqs. 1–8).
	Steal, Give, Block      bitset.Slab
	TakenOut, Take, TakenIn bitset.Slab
	BlockLoc, TakeLoc       bitset.Slab
	// S2 variables (Eqs. 9–10).
	GiveLoc, StealLoc bitset.Slab

	// Eager and Lazy placements (Eqs. 11–15).
	Eager, Lazy Placement

	// Stats carries the solver work counters (equation evaluations,
	// bitvector set/word operations, interval levels); see Counters.
	Stats obs.SolverCounters

	// evals tracks, per equation group and node, how often that group
	// was evaluated. The paper's Figure 15 pass structure evaluates
	// every group exactly once per node; enter panics on the second
	// visit, making any regression of the one-pass O(E) property loud.
	evals [grpCount][]uint8

	// tmp holds the scratch rows the equations need for intermediate
	// meets and differences.
	tmp bitset.Slab
}

// Equation groups of the Figure 15 pass structure. Eqs. 11–15 run once
// per schedule, so EAGER and LAZY count as separate groups.
const (
	grpS1      = iota // Eqs. 1–8
	grpS2             // Eqs. 9–10
	grpS3Eager        // Eqs. 11–13, EAGER
	grpS3Lazy         // Eqs. 11–13, LAZY
	grpS4Eager        // Eqs. 14–15, EAGER
	grpS4Lazy         // Eqs. 14–15, LAZY
	grpCount
)

var grpName = [grpCount]string{"Eqs.1-8", "Eqs.9-10", "Eqs.11-13/eager", "Eqs.11-13/lazy", "Eqs.14-15/eager", "Eqs.14-15/lazy"}
var grpEqs = [grpCount]int{8, 2, 3, 3, 2, 2}

// enter records one evaluation of equation group grp at node id and
// fails loudly if the group was already evaluated there — the solver's
// O(E) bound rests on every equation being evaluated exactly once per
// node, and a silent re-evaluation would invalidate every complexity
// number the observability layer reports. The panic value is an
// *InvariantError; SolveCtx recovers it at the API boundary, so no
// caller of the exported entry points ever sees the panic itself.
func (s *Solution) enter(grp, id int) {
	if s.evals[grp][id]++; s.evals[grp][id] > 1 {
		panic(&InvariantError{Group: grpName[grp], Node: id})
	}
	s.Stats.EquationEvals += int64(grpEqs[grp])
}

// Counters returns the solver work counters labeled with the problem
// name (e.g. "READ", "WRITE").
func (s *Solution) Counters(problem string) obs.SolverCounters {
	c := s.Stats
	c.Problem = problem
	return c
}

// Place returns the placement of the given mode.
func (s *Solution) Place(m Mode) *Placement {
	if m == Eager {
		return &s.Eager
	}
	return &s.Lazy
}

// Solve runs the GiveNTake algorithm (paper Fig. 15) on g. Each equation
// is evaluated exactly once per node, so the work is O(E) bit-vector
// operations. init must have one row per node ID over universe
// (NewInit). Zero-trip hoisting is suppressed for nodes whose
// NoHoist flag is set (§4.1, §5.3). A broken one-pass invariant is
// returned as *InvariantError (errors.Is ErrInvariant), never panicked.
func Solve(g *interval.Graph, universe int, init *Init) (*Solution, error) {
	return SolveCtx(context.Background(), g, universe, init)
}

// MustSolve is Solve for callers with a known-good graph (tests,
// benchmarks, generated inputs): it panics on any error instead of
// returning it.
func MustSolve(g *interval.Graph, universe int, init *Init) *Solution {
	s, err := Solve(g, universe, init)
	if err != nil {
		panic(err)
	}
	return s
}

// SolveCtx is Solve with cooperative cancellation: between interval
// nodes — the granularity at which every dataflow variable is still
// consistent — the solver polls ctx and abandons the solve with
// ctx.Err(). The check is a single channel poll per node, so an
// uncancelable context costs nothing measurable.
func SolveCtx(ctx context.Context, g *interval.Graph, universe int, init *Init) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			inv, ok := r.(*InvariantError)
			if !ok {
				panic(r) // not ours; re-raise
			}
			sol, err = nil, inv
		}
	}()
	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	n := len(g.Nodes)
	if !init.fits(n, universe) {
		return nil, fmt.Errorf("core: initial variables do not fit %d nodes over %d items", n, universe)
	}
	s := newSolution(g, universe)
	evals := make([]uint8, grpCount*n)
	for grp := range s.evals {
		s.evals[grp] = evals[grp*n : (grp+1)*n]
	}
	s.tmp = bitset.NewSlab(3, universe)

	// ----- Pass 1: S1 (Eqs. 1–8) in REVERSEPREORDER, with S2 (Eqs. 9–10)
	// for each header's children, in FORWARD order, evaluated first
	// (Fig. 15). ROOT is processed implicitly at the end: its S1
	// variables are never read, but its children still need S2.
	pre := g.Preorder
	for i := len(pre) - 1; i >= 0; i-- {
		if canceled() {
			return nil, ctx.Err()
		}
		nd := pre[i]
		if nd.IsHeader {
			for _, c := range nd.Children {
				s.eq9_10(c)
			}
		}
		s.eq1_8(nd, init)
	}
	for _, c := range g.Root.Children {
		s.eq9_10(c)
	}

	// ----- Pass 2: S3 (Eqs. 11–13) in PREORDER, per mode.
	for _, nd := range pre {
		if canceled() {
			return nil, ctx.Err()
		}
		s.eq11_13(nd, Eager)
		s.eq11_13(nd, Lazy)
	}

	// ----- Pass 3: S4 (Eqs. 14–15), any order.
	for _, nd := range pre {
		if canceled() {
			return nil, ctx.Err()
		}
		s.eq14_15(nd, Eager)
		s.eq14_15(nd, Lazy)
	}
	s.finishStats()
	return s, nil
}

// newSolution returns a Solution over g with an empty slab per
// variable.
func newSolution(g *interval.Graph, universe int) *Solution {
	n := len(g.Nodes)
	s := &Solution{Graph: g, Universe: universe}
	s.Stats.Nodes = n
	s.Stats.Universe = universe
	s.Stats.Words = (universe + 63) / 64
	s.Stats.MaxLevel, s.Stats.NodesPerLevel = g.LevelStats()
	alloc := func() bitset.Slab { return bitset.NewSlab(n, universe) }
	s.Steal, s.Give, s.Block = alloc(), alloc(), alloc()
	s.TakenOut, s.Take, s.TakenIn = alloc(), alloc(), alloc()
	s.BlockLoc, s.TakeLoc = alloc(), alloc()
	s.GiveLoc, s.StealLoc = alloc(), alloc()
	for _, p := range [2]*Placement{&s.Eager, &s.Lazy} {
		p.GivenIn, p.Given, p.GivenOut = alloc(), alloc(), alloc()
		p.ResIn, p.ResOut = alloc(), alloc()
	}
	return s
}

// finishStats derives the aggregate counters after the passes: total
// word operations and the per-equation-per-node evaluation bounds that
// witness the one-pass property empirically.
func (s *Solution) finishStats() {
	s.Stats.WordOps = s.Stats.SetOps * int64(s.Stats.Words)
	min, max := -1, 0
	for grp := range s.evals {
		for _, c := range s.evals[grp] {
			if min < 0 || int(c) < min {
				min = int(c)
			}
			if int(c) > max {
				max = int(c)
			}
		}
	}
	if min < 0 {
		min = 0 // empty graph
	}
	s.Stats.EvalsPerEqMin, s.Stats.EvalsPerEqMax = min, max
}

// eq1_8 evaluates the consumption-propagation set S1 at node n.
func (s *Solution) eq1_8(n *interval.Node, init *Init) {
	id := n.ID
	s.enter(grpS1, id)
	ops := 0
	steal, give, block := s.Steal.Row(id), s.Give.Row(id), s.Block.Row(id)

	// Eq. 1: STEAL(n) = STEAL_init(n) ∪ STEAL_loc(LASTCHILD(n))
	bitset.Or(steal, init.Steal.Row(id))
	ops++
	if n.LastChild != nil {
		bitset.Or(steal, s.StealLoc.Row(n.LastChild.ID))
		ops++
	}

	// NoHoist (§4.1, §5.3): suppressing the zero-trip hoist by dropping
	// Eq. 5's loop terms alone is unbalanced — the eager schedule would
	// keep availability across the loop while the lazy schedule can lose
	// it at an in-loop merge and stop a production it never started. The
	// paper's STEAL_init option is the balanced one: a NoHoist loop
	// steals everything its body may consume (the TAKE_loc summary of
	// its entry successors), so availability of those items dies at the
	// loop for both schedules and production is re-placed after it.
	if n.NoHoist {
		for _, e := range n.Out {
			if e.Type == interval.Entry {
				bitset.Or(steal, s.TakeLoc.Row(e.To.ID))
				ops++
			}
		}
	}

	// Eq. 2: GIVE(n) = GIVE_init(n) ∪ GIVE_loc(LASTCHILD(n))
	bitset.Or(give, init.Give.Row(id))
	ops++
	if n.LastChild != nil {
		bitset.Or(give, s.GiveLoc.Row(n.LastChild.ID))
		ops++
	}

	// Eq. 3: BLOCK(n) = STEAL(n) ∪ GIVE(n) ∪ ⋃_{s∈SUCCS^E} BLOCK_loc(s)
	bitset.Or(block, steal)
	bitset.Or(block, give)
	ops += 2
	for _, e := range n.Out {
		if e.Type == interval.Entry {
			bitset.Or(block, s.BlockLoc.Row(e.To.ID))
			ops++
		}
	}

	// Eq. 4: TAKEN_out(n) = ⋂_{s∈SUCCS^FJS} TAKEN_in(s); empty ⇒ ⊥
	takenOut := s.TakenOut.Row(id)
	first := true
	for _, e := range n.Out {
		if !interval.FJS.Has(e.Type) {
			continue
		}
		if first {
			copy(takenOut, s.TakenIn.Row(e.To.ID))
			first = false
		} else {
			bitset.And(takenOut, s.TakenIn.Row(e.To.ID))
		}
		ops++
	}

	// Eq. 5: TAKE(n) = TAKE_init(n)
	//                ∪ (⋃_{s∈SUCCS^E} TAKEN_in(s) − STEAL(n))
	//                ∪ ((TAKEN_out(n) ∩ ⋃_{s∈SUCCS^E} TAKE_loc(s)) − BLOCK(n))
	// The second term hoists consumption that is guaranteed inside the
	// loop to the header — the zero-trip hoist; the third term hoists
	// consumption that *may* happen inside if it is guaranteed after the
	// loop anyway. NoHoist headers skip both (§4.1, §5.3).
	take := s.Take.Row(id)
	bitset.Or(take, init.Take.Row(id))
	ops++
	if !n.NoHoist {
		guaranteed, may := s.tmp.Row(0), s.tmp.Row(1)
		clear(guaranteed)
		clear(may)
		hasEntry := false
		for _, e := range n.Out {
			if e.Type == interval.Entry {
				hasEntry = true
				bitset.Or(guaranteed, s.TakenIn.Row(e.To.ID))
				bitset.Or(may, s.TakeLoc.Row(e.To.ID))
				ops += 2
			}
		}
		if hasEntry {
			bitset.AndNot(guaranteed, steal)
			bitset.Or(take, guaranteed)
			bitset.And(may, takenOut)
			bitset.AndNot(may, block)
			bitset.Or(take, may)
			ops += 5
		}
	}

	// Eq. 6: TAKEN_in(n) = TAKE(n) ∪ (TAKEN_out(n) − BLOCK(n))
	takenIn := s.TakenIn.Row(id)
	copy(takenIn, takenOut)
	bitset.AndNot(takenIn, block)
	bitset.Or(takenIn, take)
	ops += 3

	// Eq. 7: BLOCK_loc(n) = (BLOCK(n) ∪ ⋃_{s∈SUCCS^F} BLOCK_loc(s)) − TAKE(n)
	blockLoc := s.BlockLoc.Row(id)
	copy(blockLoc, block)
	for _, e := range n.Out {
		if e.Type == interval.Forward {
			bitset.Or(blockLoc, s.BlockLoc.Row(e.To.ID))
			ops++
		}
	}
	bitset.AndNot(blockLoc, take)
	ops += 2

	// Eq. 8: TAKE_loc(n) = TAKE(n) ∪ (⋃_{s∈SUCCS^EF} TAKE_loc(s) − BLOCK(n))
	acc := s.tmp.Row(0)
	clear(acc)
	for _, e := range n.Out {
		if interval.EF.Has(e.Type) {
			bitset.Or(acc, s.TakeLoc.Row(e.To.ID))
			ops++
		}
	}
	bitset.AndNot(acc, block)
	bitset.Or(acc, take)
	copy(s.TakeLoc.Row(id), acc)
	ops += 3
	s.Stats.SetOps += int64(ops)
}

// eq9_10 evaluates the interval-summary set S2 at node n. On reversed
// graphs, Jump predecessors point into the interval from outside (the
// §5.3 irreducibility case); their summaries are not available yet in
// pass order, so they are treated conservatively: they contribute ⊥ to
// the GIVE_loc intersection and ⊤ to STEAL_loc.
func (s *Solution) eq9_10(n *interval.Node) {
	id := n.ID
	s.enter(grpS2, id)
	ops := 0
	invertedJump := func(e interval.Edge) bool {
		return e.Type == interval.Jump && e.From.Level < e.To.Level
	}

	// Eq. 9: GIVE_loc(n) = (GIVE(n) ∪ TAKE(n) ∪ ⋂_{p∈PREDS^FJ} GIVE_loc(p)) − STEAL(n)
	meet := s.tmp.Row(0)
	haveMeet, bottomed := false, false
	for _, e := range n.In {
		if !interval.FJ.Has(e.Type) {
			continue
		}
		if invertedJump(e) {
			bottomed = true // unknown predecessor summary ⇒ assume ⊥
			continue
		}
		if !haveMeet {
			copy(meet, s.GiveLoc.Row(e.From.ID))
			haveMeet = true
		} else {
			bitset.And(meet, s.GiveLoc.Row(e.From.ID))
		}
		ops++
	}
	gl := s.GiveLoc.Row(id)
	bitset.Or(gl, s.Give.Row(id))
	bitset.Or(gl, s.Take.Row(id))
	ops += 2
	if haveMeet && !bottomed {
		bitset.Or(gl, meet)
		ops++
	}
	bitset.AndNot(gl, s.Steal.Row(id))
	ops++

	// Eq. 10: STEAL_loc(n) = STEAL(n)
	//                      ∪ ⋃_{p∈PREDS^FJ} (STEAL_loc(p) − GIVE_loc(p))
	//                      ∪ ⋃_{p∈PREDS^S} STEAL_loc(p)
	sl := s.StealLoc.Row(id)
	bitset.Or(sl, s.Steal.Row(id))
	ops++
	d := s.tmp.Row(1)
	for _, e := range n.In {
		switch {
		case interval.FJ.Has(e.Type):
			if invertedJump(e) {
				s.StealLoc.Fill(id) // unknown predecessor summary ⇒ assume ⊤
				ops++
				continue
			}
			copy(d, s.StealLoc.Row(e.From.ID))
			bitset.AndNot(d, s.GiveLoc.Row(e.From.ID))
			bitset.Or(sl, d)
			ops += 3
		case e.Type == interval.Synthetic:
			// p is the header of an interval enclosing the source of a
			// jump; the interval may be left half-done, so resupplies
			// (GIVE_loc) cannot be trusted and are not subtracted.
			bitset.Or(sl, s.StealLoc.Row(e.From.ID))
			ops++
		}
	}
	s.Stats.SetOps += int64(ops)
}

// eq11_13 evaluates the production-placing set S3 at node n for mode m.
func (s *Solution) eq11_13(n *interval.Node, m Mode) {
	id := n.ID
	if m == Eager {
		s.enter(grpS3Eager, id)
	} else {
		s.enter(grpS3Lazy, id)
	}
	ops := 0
	p := s.Place(m)

	// Eq. 11: GIVEN_in(n) = (GIVEN(HEADER(n)) − STEAL(HEADER(n)))
	//                     ∪ ⋂_{p∈PREDS^FJ} GIVEN_out(p)
	//                     ∪ (TAKEN_in(n) ∩ ⋃_{q∈PREDS^FJ} GIVEN_out(q))
	//
	// The paper's Figure 13 states the first term as GIVEN(HEADER(n))
	// alone, but that is not iteration-invariant: availability
	// established before the loop can be destroyed by one iteration and
	// then wrongly inherited by the next (steal on one body path,
	// consumer on another — the consumer starves with no production
	// anywhere; our path oracle finds such counterexamples). Subtracting
	// the header's STEAL — the body's may-steal summary (Eq. 1) —
	// restores soundness; the remaining GIVEN(h) components are already
	// steal-filtered, and all §4 worked-example values are unchanged.
	gin := p.GivenIn.Row(id)
	if h := n.EntryHeader; h != nil {
		inherit := s.tmp.Row(0)
		copy(inherit, p.Given.Row(h.ID))
		bitset.AndNot(inherit, s.Steal.Row(h.ID))
		bitset.Or(gin, inherit)
		ops += 3
	}
	meet, join := s.tmp.Row(1), s.tmp.Row(2)
	haveMeet := false
	for _, e := range n.In {
		if !interval.FJ.Has(e.Type) {
			continue
		}
		out := p.GivenOut.Row(e.From.ID)
		if !haveMeet {
			copy(meet, out)
			copy(join, out)
			haveMeet = true
		} else {
			bitset.And(meet, out)
			bitset.Or(join, out)
		}
		ops += 2
	}
	if haveMeet {
		bitset.Or(gin, meet)
		bitset.And(join, s.TakenIn.Row(id))
		bitset.Or(gin, join)
		ops += 3
	}

	// Eq. 12: GIVEN(n) = GIVEN_in(n) ∪ TAKEN_in(n)   (EAGER)
	//                  = GIVEN_in(n) ∪ TAKE(n)       (LAZY)
	given := p.Given.Row(id)
	copy(given, gin)
	if m == Eager {
		bitset.Or(given, s.TakenIn.Row(id))
	} else {
		bitset.Or(given, s.Take.Row(id))
	}
	ops += 2

	// Eq. 13: GIVEN_out(n) = (GIVE(n) ∪ GIVEN(n)) − STEAL(n)
	gout := p.GivenOut.Row(id)
	copy(gout, given)
	bitset.Or(gout, s.Give.Row(id))
	bitset.AndNot(gout, s.Steal.Row(id))
	ops += 3
	s.Stats.SetOps += int64(ops)
}

// eq14_15 evaluates the result set S4 at node n for mode m.
func (s *Solution) eq14_15(n *interval.Node, m Mode) {
	id := n.ID
	if m == Eager {
		s.enter(grpS4Eager, id)
	} else {
		s.enter(grpS4Lazy, id)
	}
	ops := 0
	p := s.Place(m)

	// Eq. 14: RES_in(n) = GIVEN(n) − GIVEN_in(n)
	resIn := p.ResIn.Row(id)
	copy(resIn, p.Given.Row(id))
	bitset.AndNot(resIn, p.GivenIn.Row(id))
	ops += 2

	// Eq. 15: RES_out(n) = ⋃_{s∈SUCCS^FJ} GIVEN_in(s) − GIVEN_out(n)
	resOut := p.ResOut.Row(id)
	for _, e := range n.Out {
		if interval.FJ.Has(e.Type) {
			bitset.Or(resOut, p.GivenIn.Row(e.To.ID))
			ops++
		}
	}
	bitset.AndNot(resOut, p.GivenOut.Row(id))
	ops++
	s.Stats.SetOps += int64(ops)
}

// Dump renders every dataflow variable for debugging, using name(i) for
// item names.
func (s *Solution) Dump(name func(int) string) string {
	var sb strings.Builder
	row := func(label string, v bitset.Slab) {
		fmt.Fprintf(&sb, "%-14s", label)
		for _, n := range s.Graph.Preorder {
			fmt.Fprintf(&sb, " %d:%s", n.Pre+1, v.At(n.ID).StringWith(name))
		}
		sb.WriteByte('\n')
	}
	row("STEAL", s.Steal)
	row("GIVE", s.Give)
	row("BLOCK", s.Block)
	row("TAKEN_out", s.TakenOut)
	row("TAKE", s.Take)
	row("TAKEN_in", s.TakenIn)
	row("BLOCK_loc", s.BlockLoc)
	row("TAKE_loc", s.TakeLoc)
	row("GIVE_loc", s.GiveLoc)
	row("STEAL_loc", s.StealLoc)
	for _, m := range []Mode{Eager, Lazy} {
		p := s.Place(m)
		row("GIVEN_in/"+m.String(), p.GivenIn)
		row("GIVEN/"+m.String(), p.Given)
		row("GIVEN_out/"+m.String(), p.GivenOut)
		row("RES_in/"+m.String(), p.ResIn)
		row("RES_out/"+m.String(), p.ResOut)
	}
	return sb.String()
}
