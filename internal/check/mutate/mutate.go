// Package mutate seeds corruptions into solved placements so the
// static verifier's detection power can be measured. Each mutation
// flips exactly one RES bit — adding a communication the solver never
// placed, or deleting one it did — and returns an undo closure, so a
// test can score thousands of corruptions against one solve.
//
// The harness exists to keep internal/check honest: a verifier that
// proves C1–C3/O1 on every clean program but misses seeded violations
// would be vacuous. The acceptance bar is >=95% detection across the
// corpus, with the surviving few being flips that happen to produce
// another *valid* placement (e.g. an added Recv immediately re-closed
// by the original one on every path).
package mutate

import (
	"fmt"
	"math/rand"

	"givetake/internal/bitset"
	"givetake/internal/core"
)

// Mutation describes one single-bit corruption of a placement.
type Mutation struct {
	Schedule string // "eager" or "lazy"
	Edge     string // "in" (RES_in) or "out" (RES_out)
	Node     int    // node ID whose RES vector was flipped
	Item     int    // section index of the flipped bit
	Added    bool   // true if the flip set the bit, false if it cleared it
}

func (m Mutation) String() string {
	op := "drop"
	if m.Added {
		op = "inject"
	}
	return fmt.Sprintf("%s %s RES_%s item %d at node %d", op, m.Schedule, m.Edge, m.Node, m.Item)
}

// site is one flippable bit position.
type site struct {
	sched int // 0 eager, 1 lazy
	out   bool
	node  int
	item  int
	set   *bitset.Set
	has   bool
}

// sites enumerates every RES bit of the solution over reachable nodes:
// set bits (deletion candidates) and clear bits (injection candidates).
func sites(s *core.Solution, universe int) []site {
	var out []site
	for _, n := range s.Graph.Preorder {
		for sched := 0; sched < 2; sched++ {
			p := &s.Eager
			if sched == 1 {
				p = &s.Lazy
			}
			for _, dir := range []struct {
				out bool
				res bitset.Slab
			}{{false, p.ResIn}, {true, p.ResOut}} {
				set := dir.res.At(n.ID)
				for item := 0; item < universe; item++ {
					out = append(out, site{sched, dir.out, n.ID, item, set, set.Has(item)})
				}
			}
		}
	}
	return out
}

// Apply flips one pseudo-randomly chosen RES bit of the solution and
// returns the mutation plus an undo closure restoring the bit. ok is
// false when the solution exposes no flippable site (nothing changed).
//
// Deletions and injections are drawn with equal probability so the
// score exercises both "solver forgot a message" and "solver invented
// one", even though clear bits vastly outnumber set bits.
func Apply(r *rand.Rand, s *core.Solution, universe int) (Mutation, func(), bool) {
	all := sites(s, universe)
	var setBits, clearBits []site
	for _, st := range all {
		if st.has {
			setBits = append(setBits, st)
		} else {
			clearBits = append(clearBits, st)
		}
	}
	pool := setBits
	if len(setBits) == 0 || (len(clearBits) > 0 && r.Intn(2) == 0) {
		pool = clearBits
	}
	if len(pool) == 0 {
		return Mutation{}, nil, false
	}
	st := pool[r.Intn(len(pool))]

	m := Mutation{
		Schedule: [2]string{"eager", "lazy"}[st.sched],
		Edge:     "in",
		Node:     st.node,
		Item:     st.item,
		Added:    !st.has,
	}
	if st.out {
		m.Edge = "out"
	}
	if st.has {
		st.set.Remove(st.item)
	} else {
		st.set.Add(st.item)
	}
	undo := func() {
		if st.has {
			st.set.Add(st.item)
		} else {
			st.set.Remove(st.item)
		}
	}
	return m, undo, true
}
