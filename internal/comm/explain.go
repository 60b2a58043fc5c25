package comm

import (
	"fmt"
	"sort"
	"strings"

	"givetake/internal/cfg"
	"givetake/internal/core"
	"givetake/internal/interval"
)

// Provenance: for every communication statement Annotate would emit,
// ExplainNode names the dataflow equation that produced it and the
// predecessor/successor availability sets that forced it. This is the
// placement decisions of Eqs. 14–15 unfolded one step: RES_in(n) =
// GIVEN(n) − GIVEN_in(n) means "needed at n, not guaranteed on entry",
// RES_out(n) = ⋃ GIVEN_in(s) − GIVEN_out(n) means "needed by a
// successor, not surviving n's exit" — so each emitted item is
// explained by naming its consumers and the edges where availability
// is missing.

// resSlot identifies one of the four communication slots Annotate
// fills at a block boundary (see commsAt for the mapping).
type resSlot struct {
	op, half string
	sol      *core.Solution
	problem  string
	mode     core.Mode
	resIn    bool // RES_in vs RES_out on the problem's graph
	init     *core.Init
}

// slotsAt mirrors commsAt's placement mapping for a boundary:
// WRITE_Send, WRITE_Recv, READ_Send, READ_Recv. The WRITE problem was
// solved on the reversed graph, so entry in source order is RES_out
// there and vice versa.
func (a *Analysis) slotsAt(entry bool) []resSlot {
	var out []resSlot
	if a.Write != nil {
		out = append(out,
			resSlot{"WRITE", "Send", a.Write, "WRITE", core.Lazy, !entry, a.WriteInit},
			resSlot{"WRITE", "Recv", a.Write, "WRITE", core.Eager, !entry, a.WriteInit})
	}
	if a.Read != nil {
		out = append(out,
			resSlot{"READ", "Send", a.Read, "READ", core.Eager, entry, a.ReadInit},
			resSlot{"READ", "Recv", a.Read, "READ", core.Lazy, entry, a.ReadInit})
	}
	return out
}

// preOf renders node id as the 1-based preorder number `-mode graph`
// prints, always in original (source) orientation.
func (a *Analysis) preOf(id int) int { return a.Graph.Nodes[id].Pre + 1 }

// ExplainAll explains every node that places communication.
func (a *Analysis) ExplainAll() string {
	var sb strings.Builder
	for _, n := range a.Graph.Preorder {
		s, err := a.ExplainNode(n.Pre + 1)
		if err != nil || !strings.Contains(s, ":") {
			continue
		}
		if strings.Contains(s, "no communication") {
			continue
		}
		sb.WriteString(s)
	}
	if sb.Len() == 0 {
		return "no communication placed anywhere\n"
	}
	return sb.String()
}

// ExplainNode reports why each communication statement is placed at
// the node numbered preNum (1-based preorder, as printed by
// `gnt -mode graph`).
func (a *Analysis) ExplainNode(preNum int) (string, error) {
	if preNum < 1 || preNum > len(a.Graph.Preorder) {
		return "", fmt.Errorf("comm: node %d out of range 1..%d", preNum, len(a.Graph.Preorder))
	}
	n := a.Graph.Preorder[preNum-1]
	var sb strings.Builder
	kind := ""
	if n.IsHeader {
		kind = ", loop header"
	}
	// the anchor is the same formatter internal/check's diagnostics use,
	// so explanations and GNT0xx findings point at identical positions
	fmt.Fprintf(&sb, "node %d @ %s (level %d%s):\n", preNum, cfg.Anchor(n.Block), n.Level, kind)
	wrote := false
	for _, entry := range []bool{true, false} {
		boundary := "exit"
		if entry {
			boundary = "entry"
		}
		for _, sl := range a.slotsAt(entry) {
			if a.explainSlot(&sb, sl, n, boundary) {
				wrote = true
			}
		}
	}
	if !wrote {
		sb.WriteString("  no communication placed at this node\n")
	}
	return sb.String(), nil
}

// explainSlot explains every item the slot's RES set places at node n,
// returning whether anything was placed.
func (a *Analysis) explainSlot(sb *strings.Builder, sl resSlot, n *interval.Node, boundary string) bool {
	p := sl.sol.Place(sl.mode)
	id := n.ID
	set := p.ResOut.At(id)
	eq, res := "Eq.15", "RES_out"
	if sl.resIn {
		set = p.ResIn.At(id)
		eq, res = "Eq.14", "RES_in"
	}
	if set.IsEmpty() {
		return false
	}
	graphNote := ""
	if sl.sol.Graph.Reversed {
		graphNote = ", reversed graph"
	}
	fmt.Fprintf(sb, "  %s %s_%s  [%s %s(%s)%s]\n",
		boundary, sl.op, sl.half, eq, res, sl.mode, graphNote)
	name := a.ItemNames()
	set.ForEach(func(item int) {
		fmt.Fprintf(sb, "    %s:\n", name(item))
		if red, ok := a.Reduce[item]; ok && sl.op == "WRITE" {
			fmt.Fprintf(sb, "      reduction item (%s): owners combine partial results\n", red)
		}
		a.explainNeed(sb, sl, n, item)
		a.explainMissing(sb, sl, n, item)
	})
	return true
}

// explainNeed names the consumers that make the item needed here: for
// RES_in the node's own TAKE/TAKEN_in, for RES_out the successors
// whose GIVEN_in demands it (Eq. 15's union term).
func (a *Analysis) explainNeed(sb *strings.Builder, sl resSlot, n *interval.Node, item int) {
	s, id := sl.sol, n.ID
	if sl.resIn {
		switch {
		case s.Take.At(id).Has(item):
			fmt.Fprintf(sb, "      needed: TAKE(%d) — consumed at this node\n", a.preOf(id))
		case s.TakenIn.At(id).Has(item):
			fmt.Fprintf(sb, "      needed: TAKEN_in(%d) — consumed on every path from here (consumers: %s)\n",
				a.preOf(id), a.consumers(sl, item))
		default:
			// lazy GIVEN also unions TAKE only; eager TAKEN_in — reaching
			// here means the item came through GIVEN's other terms
			fmt.Fprintf(sb, "      needed: inherited availability (GIVEN) without a local consumer\n")
		}
		return
	}
	p := s.Place(sl.mode)
	var needs []string
	for _, e := range n.Out {
		if interval.FJ.Has(e.Type) && p.GivenIn.At(e.To.ID).Has(item) {
			needs = append(needs, fmt.Sprintf("%d", a.preOf(e.To.ID)))
		}
	}
	if len(needs) > 0 {
		fmt.Fprintf(sb, "      needed: GIVEN_in of successor node(s) %s (consumers: %s)\n",
			strings.Join(needs, ", "), a.consumers(sl, item))
	}
}

// explainMissing names why the item is not already available — the
// subtracted term of the placing equation.
func (a *Analysis) explainMissing(sb *strings.Builder, sl resSlot, n *interval.Node, item int) {
	s, id := sl.sol, n.ID
	p := s.Place(sl.mode)
	if !sl.resIn {
		// Eq. 15 subtracts GIVEN_out(n)
		if s.Steal.At(id).Has(item) {
			fmt.Fprintf(sb, "      missing: STEAL(%d) voids it at this node (Eq.13 subtracts it from GIVEN_out)\n", a.preOf(id))
		} else {
			fmt.Fprintf(sb, "      missing: not in GIVEN_out(%d) — never available at this node's exit\n", a.preOf(id))
		}
		return
	}
	// Eq. 14 subtracts GIVEN_in(n): find the Eq. 11 terms that fail.
	var lacking []string
	fj := 0
	for _, e := range n.In {
		if !interval.FJ.Has(e.Type) {
			continue
		}
		fj++
		if !p.GivenOut.At(e.From.ID).Has(item) {
			lacking = append(lacking, fmt.Sprintf("%d", a.preOf(e.From.ID)))
		}
	}
	switch {
	case fj == 0 && n.EntryHeader == nil:
		fmt.Fprintf(sb, "      missing: no predecessors — nothing can be available on entry\n")
	case fj == 0:
		h := n.EntryHeader
		if s.Steal.At(h.ID).Has(item) {
			fmt.Fprintf(sb, "      missing: enclosing loop (header %d) may void it, so header availability is not inherited\n", a.preOf(h.ID))
		} else {
			fmt.Fprintf(sb, "      missing: not available at enclosing header %d\n", a.preOf(h.ID))
		}
	case len(lacking) > 0:
		fmt.Fprintf(sb, "      missing: predecessor node(s) %s do not guarantee it on exit (Eq.11 meet fails)\n",
			strings.Join(lacking, ", "))
	default:
		fmt.Fprintf(sb, "      missing: partially available only (Eq.11 join term withholds it from GIVEN_in)\n")
	}
}

// consumers lists, in original preorder numbering, every node whose
// TAKE_init contains the item — the statements whose data demand
// ultimately forced this placement.
func (a *Analysis) consumers(sl resSlot, item int) string {
	var pres []int
	for id := 0; id < sl.init.Take.Rows(); id++ {
		if sl.init.Take.At(id).Has(item) {
			pres = append(pres, a.preOf(id))
		}
	}
	if len(pres) == 0 {
		return "none recorded"
	}
	sort.Ints(pres)
	out := make([]string, len(pres))
	for i, p := range pres {
		out[i] = fmt.Sprintf("node %d", p)
	}
	return strings.Join(out, ", ")
}
