package check

import (
	"slices"

	"givetake/internal/interval"
)

// Witness reconstruction: every error diagnostic names a program point
// and a per-item precondition that the fixed point proved reachable
// ("region already open here", "item not available here"). To show the
// user a concrete offending execution, a breadth-first search runs over
// pairs (context, item state) — the same context graph the dataflow
// walked, but tracking the exact automaton of the single diagnosed item
// and mode, which is tiny: open/avail/pending/availO1/untainted bits
// plus the last producer. The first path whose replay satisfies the
// precondition at the diagnostic's fire point becomes the witness.

// firePoint identifies the check location inside a context's event
// replay where a diagnostic fired.
type firePoint int

const (
	fpO1    firePoint = iota // O1 check at a RES event of the mode
	fpOpen                   // C1 check at an EAGER RES event
	fpClose                  // C1 check at a LAZY RES event
	fpTake                   // C3 check at a TAKE event
	fpSteal                  // C2 check at a STEAL event
	fpEnd                    // C1/C2 checks at a program-exit state
)

// witnessGoal pins down where a diagnostic fired and for which item.
type witnessGoal struct {
	ctx  *dfContext
	fp   firePoint
	ph   phase
	item int
	mode int
	node int
	code string
}

const (
	fromNone = -2 // item never produced on this path
	fromExt  = -1 // item provided externally (GIVE / skipped loop)
)

// itemState is the exact single-item automaton state along one path.
type itemState struct {
	open, avail, pending, availO1, untainted bool
	from                                     int
}

type succItem struct {
	key ctxKey
	s   itemState
}

type visKey struct {
	k ctxKey
	s itemState
}

// searchEntry is one witness search entry: a (context, item state) pair
// and the index of the entry it was reached from (-1 at program entry).
type searchEntry struct {
	key    ctxKey
	s      itemState
	parent int
}

// witnessPath returns the path that reached queue[i], as 1-based
// preorder numbers from program entry.
func witnessPath(g *interval.Graph, queue []searchEntry, i int) []int {
	var path []int
	for ; i >= 0; i = queue[i].parent {
		path = append(path, g.Nodes[queue[i].key.node].Pre+1)
	}
	slices.Reverse(path)
	return path
}

func (v *verifier) goalPred(g witnessGoal, s itemState) bool {
	switch g.fp {
	case fpO1:
		return s.availO1 && s.from != g.node
	case fpOpen:
		return s.open
	case fpClose:
		return !s.open
	case fpTake:
		return !s.avail
	case fpSteal:
		return s.pending
	case fpEnd:
		if g.code == CodeOpenAtExit {
			return s.open
		}
		return s.pending
	}
	return false
}

// witness searches for a path from program entry to the goal's fire
// point along which the goal predicate holds, returned as 1-based
// preorder numbers. nil when no witness is found within the budget
// (the diagnostic stands regardless; must-style checks are backed by
// every path). The search polls the verification's ctx and, once it is
// canceled, records the error in v.err and returns nil.
func (v *verifier) witness(g witnessGoal) []int {
	if v.entry == nil || g.ctx == nil {
		return nil
	}
	start := searchEntry{key: ctxKey{v.entry.ID, 0, true}, s: itemState{untainted: true, from: fromNone}, parent: -1}
	queue := []searchEntry{start}
	visited := map[visKey]bool{{start.key, start.s}: true}
	done := v.ctx.Done()
	for head := 0; head < len(queue) && len(queue) < 20000; head++ {
		if head%pollEvery == 0 && canceled(done) {
			v.err = v.ctx.Err()
			return nil
		}
		cur := queue[head]
		c := v.lookup(cur.key)
		if c == nil {
			continue
		}
		hit, succs := v.replay(c, cur.s, g)
		if hit {
			return witnessPath(v.g, queue, head)
		}
		for _, sc := range succs {
			vk := visKey{sc.key, sc.s}
			if !visited[vk] {
				visited[vk] = true
				queue = append(queue, searchEntry{key: sc.key, s: sc.s, parent: head})
			}
		}
	}
	return nil
}

// wit bundles the goal with a hit flag so replay helpers share one
// check closure.
type wit struct {
	v   *verifier
	g   witnessGoal
	c   *dfContext
	hit bool
}

func (w *wit) check(fp firePoint, ph phase, s itemState) {
	if w.hit || w.c != w.g.ctx || fp != w.g.fp || ph != w.g.ph {
		return
	}
	if w.v.goalPred(w.g, s) {
		w.hit = true
	}
}

// replay mirrors verifier.transfer for a single item: it applies the
// context's events to the item automaton, tests the goal at every check
// point, and returns the successor (context, state) pairs.
func (v *verifier) replay(c *dfContext, s itemState, g witnessGoal) (bool, []succItem) {
	n := c.node
	w := &wit{v: v, g: g, c: c}

	if !n.IsHeader || c.outside {
		s = v.replayProduction(n, s, phaseIn, w)
		if v.p.Init.Take.At(n.ID).Has(g.item) {
			w.check(fpTake, phaseIn, s)
			s.pending = false
		}
		if v.p.Init.Give.At(n.ID).Has(g.item) {
			s.avail, s.availO1, s.from = true, true, fromExt
		}
		if v.p.Init.Steal.At(n.ID).Has(g.item) {
			w.check(fpSteal, phaseIn, s)
			s.avail, s.availO1, s.pending, s.from = false, false, false, fromNone
		}
	}

	var succs []succItem
	if n.IsHeader {
		if c.outside || !v.fr.has(c.f, n.ID) {
			bodyF := v.fr.step(c.f, opWith, n)
			z := s
			if v.p.Sol.Give.At(n.ID).Has(g.item) && !v.p.Sol.Steal.At(n.ID).Has(g.item) {
				z.avail, z.availO1, z.from = true, true, fromExt
			}
			if c.outside {
				z.untainted, z.pending = false, false
			}
			succs = append(succs, v.replayExit(n, c.f, z, w)...)
			if child := entryChild(n); child != nil {
				succs = append(succs, succItem{ctxKey{child.ID, bodyF, true}, s})
			} else {
				succs = append(succs, v.replayExit(n, c.f, s, w)...)
			}
			return w.hit, succs
		}
		// Iteration: O1 knowledge resets to the loop-entry snapshot minus
		// the body's may-steal summary (Eq. 11 inherits GIVEN − STEAL).
		if sn, ok := v.snaps[snapKey{n.ID, c.f}]; !ok || !sn[g.mode*v.uw:].has(g.item) {
			s.availO1 = false
		}
		if v.p.Sol.Steal.At(n.ID).Has(g.item) {
			s.availO1 = false
		}
		if child := entryChild(n); child != nil {
			succs = append(succs, succItem{ctxKey{child.ID, c.f, true}, s})
		}
		succs = append(succs, v.replayExit(n, v.fr.step(c.f, opWithout, n), s, w)...)
		return w.hit, succs
	}

	fired := false
	exited := false
	var sOut itemState
	for _, e := range n.Out {
		switch e.Type {
		case interval.Cycle, interval.Forward, interval.Jump:
		default:
			continue
		}
		if !fired {
			sOut = v.replayProduction(n, s, phaseOut, w)
			fired = true
		}
		exited = true
		switch e.Type {
		case interval.Cycle:
			succs = append(succs, succItem{ctxKey{e.To.ID, c.f, false}, sOut})
		case interval.Forward:
			succs = append(succs, succItem{ctxKey{e.To.ID, c.f, true}, sOut})
		case interval.Jump:
			sj := sOut
			sj.availO1 = false // mirror the verifier's jump
			succs = append(succs, succItem{ctxKey{e.To.ID, v.fr.step(c.f, opJump, e.To), true}, sj})
		}
	}
	if !exited {
		w.check(fpEnd, phaseIn, s)
	}
	return w.hit, succs
}

func (v *verifier) replayExit(h *interval.Node, f int32, s itemState, w *wit) []succItem {
	fired := false
	exited := false
	var out []succItem
	var sOut itemState
	for _, e := range h.Out {
		if e.Type != interval.Forward && e.Type != interval.Jump {
			continue
		}
		if !fired {
			sOut = v.replayProduction(h, s, phaseOut, w)
			fired = true
		}
		exited = true
		tf := f
		se := sOut
		if e.Type == interval.Jump {
			tf = v.fr.step(f, opJump, e.To)
			se.availO1 = false // mirror the verifier's jump
		}
		out = append(out, succItem{ctxKey{e.To.ID, tf, true}, se})
	}
	if !exited {
		w.check(fpEnd, phaseIn, s)
	}
	return out
}

func (v *verifier) replayProduction(n *interval.Node, s itemState, ph phase, w *wit) itemState {
	eager, lazy := v.resAt(n, ph)
	item := w.g.item
	modeRes := eager
	if w.g.mode == 1 {
		modeRes = lazy
	}
	if modeRes.has(item) {
		w.check(fpO1, ph, s)
		s.avail, s.availO1 = true, true
		s.from = n.ID
		if s.untainted {
			s.pending = true
		}
	}
	if eager.has(item) {
		w.check(fpOpen, ph, s)
		s.open = true
	}
	if lazy.has(item) {
		w.check(fpClose, ph, s)
		s.open = false
	}
	return s
}
