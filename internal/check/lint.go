package check

import (
	"math/bits"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/interval"
)

// The communication linter: findings about placements that satisfy the
// criteria but are degenerate or hazardous. All linter diagnostics are
// warnings — they never fail a check run — and they use structural
// reachability on the plain graph, deliberately simpler than the
// verifier's context-sensitive dataflow.

// Lint inspects one solved problem for degenerate communication:
//
//	GNT101  a Recv (LAZY production) is reachable from entry without
//	        passing the matching Send — communication issued backwards
//	        (on a correct placement this coincides with C1 GNT002, but
//	        the lint also runs structurally, without loop-frame
//	        semantics, so it survives as a second opinion);
//	GNT110  Send and Recv of an item coincide at one program point, so
//	        the split hides no latency;
//	GNT111  production hoisted to a zero-trip loop header whose
//	        consumers all sit inside the loop — a skipped loop then
//	        communicates speculatively (suppress with NoHoist /
//	        STEAL_init when that is unacceptable, §4.1).
func Lint(p *Problem) []Diagnostic {
	var out []Diagnostic
	out = append(out, lintRecvBeforeSend(p)...)
	out = append(out, lintZeroOverlap(p)...)
	out = append(out, lintZeroTripHoist(p)...)
	return out
}

func lintWarn(p *Problem, code string, item int, n *interval.Node, detail string) Diagnostic {
	d := Diagnostic{
		Code:      code,
		Severity:  Warning,
		Problem:   p.Name,
		Criterion: "lint",
		Item:      item,
		Node:      -1,
		Detail:    detail,
	}
	if item >= 0 {
		d.ItemName = p.itemName(item)
	}
	if n != nil {
		d.Node = n.ID
		d.Pre = n.Pre + 1
		d.Pos = cfg.Anchor(n.Block)
	}
	return d
}

// lintRecvBeforeSend runs a forward may-analysis of "no Send seen yet"
// per item over CEFJ edges and flags LAZY productions reached in that
// state.
func lintRecvBeforeSend(p *Problem) []Diagnostic {
	g := p.Graph
	nn := len(g.Nodes)
	var entry *interval.Node
	for _, n := range g.Preorder {
		if n.CountPreds(interval.CEFJ) == 0 {
			entry = n
			break
		}
	}
	if entry == nil {
		return nil
	}
	eagerIn, eagerOut := p.Sol.Eager.ResIn, p.Sol.Eager.ResOut
	lazyIn, lazyOut := p.Sol.Lazy.ResIn, p.Sol.Lazy.ResOut
	// noSend row n: items for which some entry path reaches n's events
	// with no EAGER production passed yet. The extra last row is the
	// state leaving the node being propagated.
	noSend := bitset.NewSlab(nn+1, p.Universe)
	st := noSend.Row(nn)
	seen := make([]bool, nn)
	noSend.Fill(entry.ID)
	seen[entry.ID] = true
	wl := []*interval.Node{entry}
	for len(wl) > 0 {
		n := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		copy(st, noSend.Row(n.ID))
		bitset.AndNot(st, eagerIn.Row(n.ID))
		bitset.AndNot(st, eagerOut.Row(n.ID))
		for _, e := range n.Out {
			switch e.Type {
			case interval.Cycle, interval.Forward, interval.Jump, interval.Entry:
			default:
				continue
			}
			t := e.To.ID
			if grew := orGrows(noSend.Row(t), st); grew || !seen[t] {
				seen[t] = true
				wl = append(wl, e.To)
			}
		}
	}
	var out []Diagnostic
	for _, n := range g.Preorder {
		if !seen[n.ID] {
			continue
		}
		warn := func(wi int, w uint64) {
			for ; w != 0; w &= w - 1 {
				out = append(out, lintWarn(p, CodeRecvBeforeSend, wi*64+bits.TrailingZeros64(w), n,
					"Recv reachable from entry without passing the matching Send"))
			}
		}
		// events at one node fire Send before Recv at each boundary, so
		// the node's own eager production is subtracted first
		ns, eIn, eOut := noSend.Row(n.ID), eagerIn.Row(n.ID), eagerOut.Row(n.ID)
		lIn, lOut := lazyIn.Row(n.ID), lazyOut.Row(n.ID)
		for wi := range ns {
			warn(wi, lIn[wi]&ns[wi]&^eIn[wi])
		}
		for wi := range ns {
			warn(wi, lOut[wi]&ns[wi]&^eIn[wi]&^eOut[wi])
		}
	}
	return out
}

// orGrows sets dst |= src word by word and reports whether dst gained
// an item.
func orGrows(dst, src []uint64) bool {
	grew := false
	for i, w := range src {
		if w&^dst[i] != 0 {
			dst[i] |= w
			grew = true
		}
	}
	return grew
}

// lintZeroOverlap flags items whose Send and Recv coincide at the same
// node boundary: the region is empty and hides no latency.
func lintZeroOverlap(p *Problem) []Diagnostic {
	var out []Diagnostic
	for _, n := range p.Graph.Preorder {
		warn := func(eager, lazy bitset.Slab, boundary string) {
			l := lazy.Row(n.ID)
			for wi, w := range eager.Row(n.ID) {
				for w &= l[wi]; w != 0; w &= w - 1 {
					out = append(out, lintWarn(p, CodeZeroOverlap, wi*64+bits.TrailingZeros64(w), n,
						"Send and Recv coincide at node "+boundary+": zero-overlap region hides no latency"))
				}
			}
		}
		warn(p.Sol.Eager.ResIn, p.Sol.Lazy.ResIn, "entry")
		warn(p.Sol.Eager.ResOut, p.Sol.Lazy.ResOut, "exit")
	}
	return out
}

// lintZeroTripHoist flags production hoisted to the entry of a
// zero-trip loop all of whose consumers sit inside the loop: when the
// loop runs zero times the communication was speculative.
func lintZeroTripHoist(p *Problem) []Diagnostic {
	var out []Diagnostic
	for _, h := range p.Graph.Preorder {
		if !h.IsHeader || h.NoHoist {
			continue
		}
		hh := h
		p.Sol.Eager.ResIn.At(h.ID).ForEach(func(i int) {
			inside, outside := 0, 0
			for _, n := range p.Graph.Nodes {
				if p.Init.Take.At(n.ID).Has(i) {
					// The header's own TAKE fires at construct entry even on
					// zero trips, so it counts as an outside consumer.
					if interval.InInterval(n, hh) {
						inside++
					} else {
						outside++
					}
				}
			}
			if inside > 0 && outside == 0 {
				out = append(out, lintWarn(p, CodeZeroTripHoist, i, hh,
					"production hoisted above a zero-trip loop holding all its consumers; a skipped loop communicates speculatively"))
			}
		})
	}
	return out
}
