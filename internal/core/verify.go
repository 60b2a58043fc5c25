package core

import (
	"fmt"

	"givetake/internal/bitset"
	"givetake/internal/interval"
)

// This file turns the paper's correctness criteria (§3.2) into executable
// path predicates. Paths of the interval flow graph are enumerated with
// bounded loop trip counts, the producer/consumer state machine of each
// item is simulated, and violations of
//
//	C1 (balance):     every EAGER production is matched by exactly one
//	                  LAZY production before the next EAGER one, and no
//	                  production is left open at path end;
//	C2 (safety):      every generated production is consumed before being
//	                  stolen or the path ending (checked on paths where
//	                  every loop runs at least once, since GIVE-N-TAKE
//	                  deliberately hoists out of zero-trip loops);
//	C3 (sufficiency): every consumer sees its item available — produced
//	                  or given on this path, not stolen since
//
// are reported. The verifier is the oracle behind the property tests: it
// knows nothing about the fifteen equations, only about what a correct
// placement must look like operationally.

// Violation describes one criterion failure on one path.
type Violation struct {
	Criterion string // "C1", "C2", "C3"
	Mode      Mode
	Item      int
	Node      *interval.Node // where the failure manifested
	Detail    string
	Path      []*interval.Node
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%v: item %d at %v: %s", v.Criterion, v.Mode, v.Item, v.Node, v.Detail)
}

// VerifyConfig bounds path enumeration.
type VerifyConfig struct {
	// Trips are the loop trip counts tried at each loop entry
	// (default {0, 1, 2}).
	Trips []int
	// MaxPaths caps the number of complete paths examined (default 4096).
	MaxPaths int
	// CheckSafety enables C2 checking; it is checked only on paths whose
	// every loop runs at least once, because hoisting out of zero-trip
	// loops deliberately trades safety for motion (paper §2).
	CheckSafety bool
}

// maxPathLen caps the length of a single path, in events.
const maxPathLen = 10000

func (c *VerifyConfig) fill() {
	if len(c.Trips) == 0 {
		c.Trips = []int{0, 1, 2}
	}
	if c.MaxPaths == 0 {
		c.MaxPaths = 4096
	}
}

// Verify checks the solution against init on every enumerated path and
// returns all violations found (nil means all checked paths are clean).
func Verify(s *Solution, init *Init, cfg VerifyConfig) []Violation {
	cfg.fill()
	v := &verifier{s: s, init: init, cfg: cfg}
	v.walk()
	return v.violations
}

type verifier struct {
	s          *Solution
	init       *Init
	cfg        VerifyConfig
	violations []Violation
	paths      int

	path []*interval.Node

	// per-mode item state, see reset()
	open      [2]*bitset.Set // C1: eager production started, not stopped
	avail     [2]*bitset.Set // C3: available (produced/given, not stolen)
	pending   [2]*bitset.Set // C2: produced, not consumed yet
	zeroTrips bool           // some loop on this path ran zero times
}

func (v *verifier) reset() {
	u := v.s.Universe
	for m := 0; m < 2; m++ {
		v.open[m] = bitset.New(u)
		v.avail[m] = bitset.New(u)
		v.pending[m] = bitset.New(u)
	}
	v.zeroTrips = false
	v.path = v.path[:0]
}

func (v *verifier) violate(crit string, m Mode, item int, n *interval.Node, detail string) {
	if len(v.violations) < 100 {
		v.violations = append(v.violations, Violation{
			Criterion: crit, Mode: m, Item: item, Node: n, Detail: detail,
			Path: append([]*interval.Node(nil), v.path...),
		})
	}
}

// entryNode returns the node with no CEFJ predecessors (the program
// entry in this graph's orientation).
func (v *verifier) entryNode() *interval.Node {
	for _, n := range v.s.Graph.Preorder {
		if n.CountPreds(interval.CEFJ) == 0 {
			return n
		}
	}
	return nil
}

func (v *verifier) walk() {
	start := v.entryNode()
	if start == nil {
		return
	}
	v.reset()
	v.step(start, true, nil)
}

type loopFrame struct {
	header *interval.Node
	left   int // iterations still to run
}

// snapshot/restore of simulation state for backtracking.
type simState struct {
	open, avail, pending [2]*bitset.Set
	zeroTrips            bool
	pathLen              int
}

func (v *verifier) save() simState {
	st := simState{zeroTrips: v.zeroTrips, pathLen: len(v.path)}
	for m := 0; m < 2; m++ {
		st.open[m] = v.open[m].Clone()
		st.avail[m] = v.avail[m].Clone()
		st.pending[m] = v.pending[m].Clone()
	}
	return st
}

func (v *verifier) restore(st simState) {
	v.zeroTrips = st.zeroTrips
	v.path = v.path[:st.pathLen]
	for m := 0; m < 2; m++ {
		v.open[m] = st.open[m]
		v.avail[m] = st.avail[m]
		v.pending[m] = st.pending[m]
	}
}

// step simulates node n (arriving from outside the loop if fromOutside)
// and recurses over successors. loops is the active loop stack.
func (v *verifier) step(n *interval.Node, fromOutside bool, loops []loopFrame) {
	if v.paths >= v.cfg.MaxPaths || len(v.path) >= maxPathLen {
		return
	}
	v.path = append(v.path, n)

	// --- events at n ---
	// RES_in executes only when the node is entered from outside its
	// loop: production at a header's entry materializes before the DO
	// statement (cf. Fig. 14), not once per iteration. A header's own
	// init events model the DO statement itself (bound evaluation),
	// which Fortran performs once at loop entry, so they follow the same
	// rule. Within a node, reads precede writes: TAKE fires before GIVE
	// and STEAL (x(i) = x(i)+1 consumes the old value first), and a
	// simultaneous GIVE/STEAL of one item resolves to stolen, matching
	// Eq. 13's (GIVE ∪ GIVEN) − STEAL.
	if fromOutside {
		v.produce(n)
	}
	if !n.IsHeader || fromOutside {
		v.take(n)
		v.give(n)
		v.steal(n)
	}

	// --- choose successors ---
	if n.IsHeader {
		if fromOutside || len(loops) == 0 || loops[len(loops)-1].header != n {
			// Entering the loop construct (or reaching the header after a
			// jump into the loop, which happens on reversed graphs — the
			// frame stack then carries no entry for it): choose a trip
			// count afresh.
			for _, t := range v.cfg.Trips {
				st := v.save()
				if t == 0 {
					v.zeroTrips = v.zeroTrips || fromOutside
					// The framework treats a skipped loop's GIVEs as
					// vacuously satisfied (paper §2: zero trips mean the
					// produced section is empty), so availability summaries
					// still apply. GIVE(h) − STEAL(h) aggregates exactly
					// the loop's surviving free production (Eqs. 1–2).
					skipped := bitset.Subtract(v.s.Give.At(n.ID), v.s.Steal.At(n.ID))
					for m := Eager; m <= Lazy; m++ {
						v.avail[m].UnionWith(skipped)
					}
					v.exitLoop(n, loops)
				} else {
					v.enterBody(n, append(loops, loopFrame{header: n, left: t - 1}))
				}
				v.restore(st)
			}
			return
		}
		// Arrived via the cycle edge: iterate again or leave the loop.
		fr := loops[len(loops)-1]
		if fr.left > 0 {
			nf := fr
			nf.left--
			frames := append(append([]loopFrame(nil), loops[:len(loops)-1]...), nf)
			v.enterBody(n, frames)
		} else {
			v.exitLoop(n, loops[:len(loops)-1])
		}
		return
	}

	// Non-header: follow each CEFJ successor.
	succs := n.Succs(interval.CEFJ, nil)
	if len(succs) == 0 {
		v.finishPath(n)
		return
	}
	for _, e := range n.Out {
		switch e.Type {
		case interval.Cycle:
			st := v.save()
			v.produceExit(n, e.To)
			v.step(e.To, false, loops)
			v.restore(st)
		case interval.Forward:
			st := v.save()
			v.produceExit(n, e.To)
			v.step(e.To, true, loops)
			v.restore(st)
		case interval.Jump:
			// leaving one or more loops: pop the frames of every loop the
			// target is outside of
			st := v.save()
			v.produceExit(n, e.To)
			frames := loops
			for len(frames) > 0 && !interval.InInterval(e.To, frames[len(frames)-1].header) && e.To != frames[len(frames)-1].header {
				frames = frames[:len(frames)-1]
			}
			v.step(e.To, true, frames)
			v.restore(st)
		}
	}
}

func (v *verifier) enterBody(h *interval.Node, loops []loopFrame) {
	for _, e := range h.Out {
		if e.Type == interval.Entry {
			st := v.save()
			v.step(e.To, true, loops)
			v.restore(st)
			return // unique entry edge
		}
	}
	// loop with no entry edge: treat as exit
	v.exitLoop(h, loops[:len(loops)-1])
}

func (v *verifier) exitLoop(h *interval.Node, loops []loopFrame) {
	// RES_out of the header executes when the loop construct is left.
	exited := false
	for _, e := range h.Out {
		if e.Type == interval.Forward || e.Type == interval.Jump {
			st := v.save()
			v.produceExit(h, e.To)
			v.step(e.To, true, loops)
			v.restore(st)
			exited = true
		}
	}
	if !exited {
		v.finishPath(h)
	}
}

func (v *verifier) finishPath(last *interval.Node) {
	v.paths++
	for m := Eager; m <= Lazy; m++ {
		v.open[m].ForEach(func(i int) {
			v.violate("C1", m, i, last, "production still open at program exit")
		})
		if v.cfg.CheckSafety && !v.zeroTrips {
			v.pending[m].ForEach(func(i int) {
				v.violate("C2", m, i, last, "production never consumed")
			})
		}
	}
}

// produce handles RES_in events for both modes.
func (v *verifier) produce(n *interval.Node) {
	for m := Eager; m <= Lazy; m++ {
		v.applyProduction(m, v.s.Place(m).ResIn.At(n.ID))
	}
	// C1 balance: eager opens, lazy closes.
	v.s.Eager.ResIn.At(n.ID).ForEach(func(i int) {
		if v.open[Eager].Has(i) {
			v.violate("C1", Eager, i, n, "production started twice without a stop")
		}
		v.open[Eager].Add(i)
	})
	v.s.Lazy.ResIn.At(n.ID).ForEach(func(i int) {
		if !v.open[Eager].Has(i) {
			v.violate("C1", Lazy, i, n, "production stopped without a start")
		}
		v.open[Eager].Remove(i)
	})
}

// produceExit handles RES_out events of node n when taking the edge to
// succ (RES_out is production on the exit side).
func (v *verifier) produceExit(n, succ *interval.Node) {
	for m := Eager; m <= Lazy; m++ {
		v.applyProduction(m, v.s.Place(m).ResOut.At(n.ID))
	}
	v.s.Eager.ResOut.At(n.ID).ForEach(func(i int) {
		if v.open[Eager].Has(i) {
			v.violate("C1", Eager, i, n, "production started twice without a stop (exit)")
		}
		v.open[Eager].Add(i)
	})
	v.s.Lazy.ResOut.At(n.ID).ForEach(func(i int) {
		if !v.open[Eager].Has(i) {
			v.violate("C1", Lazy, i, n, "production stopped without a start (exit)")
		}
		v.open[Eager].Remove(i)
	})
}

func (v *verifier) applyProduction(m Mode, res *bitset.Set) {
	v.avail[m].UnionWith(res)
	v.pending[m].UnionWith(res)
}

func (v *verifier) give(n *interval.Node) {
	g := v.init.Give.At(n.ID)
	for m := Eager; m <= Lazy; m++ {
		v.avail[m].UnionWith(g)
	}
}

func (v *verifier) take(n *interval.Node) {
	v.init.Take.At(n.ID).ForEach(func(i int) {
		for m := Eager; m <= Lazy; m++ {
			if !v.avail[m].Has(i) {
				v.violate("C3", m, i, n, "consumer without available production")
			}
			v.pending[m].Remove(i)
		}
	})
}

func (v *verifier) steal(n *interval.Node) {
	st := v.init.Steal.At(n.ID)
	for m := Eager; m <= Lazy; m++ {
		if v.cfg.CheckSafety && !v.zeroTrips {
			stolen := bitset.Intersect(v.pending[m], st)
			stolen.ForEach(func(i int) {
				v.violate("C2", m, i, n, "production stolen before being consumed")
			})
		}
		v.avail[m].SubtractWith(st)
		v.pending[m].SubtractWith(st)
	}
}
