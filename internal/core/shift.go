package core

import (
	"givetake/internal/interval"
)

// ShiftOffSynthetic implements the paper's §5.4 post-processing: code
// placed at synthetic nodes needs new basic blocks at code generation
// time (a new else branch, a landing pad), so a backward pass checks
// whether each such production can move to a neighboring non-synthetic
// node without conflicts — in the spirit of Dhamdhere's edge placement
// [Dha88a] — and performs the movement on the RES sets.
//
// Two conflict-free movements exist, applied per mode until nothing
// changes:
//
//   - down-merge: when every real predecessor edge of a node b is a
//     synthetic pad producing item x, the production moves to b's entry
//     (every path into b produced x anyway, so path counts — and with
//     them balance — are preserved);
//   - up-merge: when every successor edge of a node a leads to a
//     synthetic pad producing x, the production hoists to a's exit.
//
// Productions that cannot move (like Figure 3's synthetic else branch,
// whose sibling path must not produce) stay, and the caller materializes
// the block. The GIVEN sets are not updated — after shifting, a Solution
// is placement data for code generation; Verify still applies since the
// oracle reads only the RES sets.
//
// The return value counts (node, item, mode) movements performed.
func (s *Solution) ShiftOffSynthetic() int {
	moved := 0
	for _, m := range []Mode{Eager, Lazy} {
		p := s.Place(m)
		for changed := true; changed; {
			changed = false
			// backward over the preorder, as in the paper
			for i := len(s.Graph.Preorder) - 1; i >= 0; i-- {
				n := s.Graph.Preorder[i]
				if n.Block != nil && n.Block.Synthetic() {
					continue
				}
				if c := s.downMerge(p, n); c > 0 {
					moved += c
					changed = true
				}
				if c := s.upMerge(p, n); c > 0 {
					moved += c
					changed = true
				}
			}
		}
	}
	return moved
}

// downMerge moves production common to all synthetic predecessors of n
// into RES_in(n). Only FORWARD/JUMP predecessor edges qualify: a pad on
// a CYCLE edge executes once per iteration while RES_in of the header it
// feeds executes once per loop entry, and an ENTRY-edge target's RES_in
// has before-the-loop placement semantics — merging across either would
// change execution counts and break balance.
func (s *Solution) downMerge(p *Placement, n *interval.Node) int {
	var pads []*interval.Node
	for _, e := range n.In {
		if !interval.CEFJ.Has(e.Type) {
			continue
		}
		if !interval.FJ.Has(e.Type) {
			return 0 // cycle or entry edge: placement semantics differ
		}
		if e.From.Block == nil || !e.From.Block.Synthetic() {
			return 0 // a real predecessor: moving down would add production to its path
		}
		pads = append(pads, e.From)
	}
	if len(pads) == 0 {
		return 0
	}
	common := p.ResIn.At(pads[0].ID).Clone()
	for _, pad := range pads[1:] {
		common.IntersectWith(p.ResIn.At(pad.ID))
	}
	if common.IsEmpty() {
		return 0
	}
	for _, pad := range pads {
		p.ResIn.At(pad.ID).SubtractWith(common)
	}
	p.ResIn.At(n.ID).UnionWith(common)
	return common.Count() * len(pads)
}

// upMerge hoists production common to all synthetic successors of n into
// RES_out(n).
func (s *Solution) upMerge(p *Placement, n *interval.Node) int {
	var pads []*interval.Node
	for _, e := range n.Out {
		if !interval.CEFJ.Has(e.Type) {
			continue
		}
		if !interval.FJ.Has(e.Type) {
			return 0 // entry/cycle successor: per-iteration vs per-entry mismatch
		}
		if e.To.Block == nil || !e.To.Block.Synthetic() {
			return 0
		}
		pads = append(pads, e.To)
	}
	if len(pads) < 2 {
		return 0 // single-pad chains are handled by downMerge at the pad's sink
	}
	common := p.ResIn.At(pads[0].ID).Clone()
	for _, pad := range pads[1:] {
		common.IntersectWith(p.ResIn.At(pad.ID))
	}
	// only hoist production the pads exclusively own: a pad with other
	// predecessors cannot happen (pads are edge splits), so ownership is
	// guaranteed
	if common.IsEmpty() {
		return 0
	}
	for _, pad := range pads {
		p.ResIn.At(pad.ID).SubtractWith(common)
	}
	p.ResOut.At(n.ID).UnionWith(common)
	return common.Count() * len(pads)
}

// SyntheticResidue reports how many productions remain on synthetic
// nodes (per mode), i.e. how many new basic blocks code generation still
// needs.
func (s *Solution) SyntheticResidue(m Mode) int {
	p := s.Place(m)
	total := 0
	for _, n := range s.Graph.Nodes {
		if n.Block != nil && n.Block.Synthetic() {
			total += p.ResIn.At(n.ID).Count() + p.ResOut.At(n.ID).Count()
		}
	}
	return total
}
