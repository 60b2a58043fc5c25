package core

import (
	"givetake/internal/bitset"
	"givetake/internal/interval"
)

// Atomic returns the degenerate fallback placement that produces every
// item exactly at its consumption point, in both schedules: for each
// node n, RES_in(n) = TAKE_init(n) for EAGER and LAZY alike, and no
// production anywhere else. This is the paper's always-correct floor
// (§2, §3.1): production at the consumption point is trivially balanced
// — each region opens and closes at the same program point, so C1 can
// never break — every consumer is satisfied by its own transfer (C3),
// and nothing produced outlives its node (C2). It is also maximally
// pessimal (no vectorization, no latency hiding, no redundancy
// elimination), which is why it is a degradation target and not a
// result.
//
// The second return value is the initial-variable set the placement is
// correct against: atomic transfers are consumed immediately and the
// runtime retains no local copy, so every consumed item is invalidated
// at its own node (STEAL_init ∪= TAKE_init) and free production is
// dropped (GIVE_init = ∅ — a local copy that is never reused provides
// nothing). Verifying the returned Solution against the returned Init
// with check.Verify yields no criterion errors for any graph; O1 in
// particular cannot fire because availability never survives a node.
//
// Atomic performs no dataflow solving at all — O(N) set copies — so it
// cannot hit the one-pass invariant, cannot meaningfully time out, and
// never fails; it is the bottom rung of the serve degradation ladder.
func Atomic(g *interval.Graph, universe int, init *Init) (*Solution, *Init) {
	n := len(g.Nodes)
	s := newSolution(g, universe)
	fb := NewInit(n, universe)
	for id := 0; id < n; id++ {
		t := init.Take.Row(id)
		copy(fb.Take.Row(id), t)
		for _, v := range [...]bitset.Slab{s.Take, s.Eager.ResIn, s.Lazy.ResIn, s.Eager.Given, s.Lazy.Given} {
			bitset.Or(v.Row(id), t)
		}
		// the node-local invalidation set: everything the original
		// problem steals here, plus everything consumed or given here
		st := fb.Steal.Row(id)
		bitset.Or(st, init.Steal.Row(id))
		bitset.Or(st, t)
		bitset.Or(st, init.Give.Row(id))
		bitset.Or(s.Steal.Row(id), st)
	}
	return s, fb
}
