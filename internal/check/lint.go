package check

import (
	"fmt"

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
	u := p.Universe
	// noSend[n]: items for which some entry path reaches n's events with
	// no EAGER production passed yet.
	noSend := make([]*bitset.Set, nn)
	seen := make([]bool, nn)
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
	noSend[entry.ID] = bitset.NewFull(u)
	seen[entry.ID] = true
	wl := []*interval.Node{entry}
	for len(wl) > 0 {
		n := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		st := noSend[n.ID].Clone()
		st.SubtractWith(p.Sol.Eager.ResIn.At(n.ID))
		st.SubtractWith(p.Sol.Eager.ResOut.At(n.ID))
		for _, e := range n.Out {
			switch e.Type {
			case interval.Cycle, interval.Forward, interval.Jump, interval.Entry:
			default:
				continue
			}
			t := e.To.ID
			if !seen[t] {
				seen[t] = true
				noSend[t] = st.Clone()
				wl = append(wl, e.To)
			} else if !noSend[t].ContainsAll(st) {
				noSend[t].UnionWith(st)
				wl = append(wl, e.To)
			}
		}
	}
	var out []Diagnostic
	for _, n := range g.Preorder {
		if !seen[n.ID] {
			continue
		}
		// events at one node fire Send before Recv at each boundary, so
		// the node's own eager production is subtracted first
		afterIn := bitset.Subtract(noSend[n.ID], p.Sol.Eager.ResIn.At(n.ID))
		bitset.Intersect(p.Sol.Lazy.ResIn.At(n.ID), afterIn).ForEach(func(i int) {
			out = append(out, lintWarn(p, CodeRecvBeforeSend, i, n,
				"Recv reachable from entry without passing the matching Send"))
		})
		afterOut := bitset.Subtract(afterIn, p.Sol.Eager.ResOut.At(n.ID))
		bitset.Intersect(p.Sol.Lazy.ResOut.At(n.ID), afterOut).ForEach(func(i int) {
			out = append(out, lintWarn(p, CodeRecvBeforeSend, i, n,
				"Recv reachable from entry without passing the matching Send"))
		})
	}
	return out
}

// lintZeroOverlap flags items whose Send and Recv coincide at the same
// node boundary: the region is empty and hides no latency.
func lintZeroOverlap(p *Problem) []Diagnostic {
	var out []Diagnostic
	for _, n := range p.Graph.Preorder {
		for _, boundary := range []struct {
			name        string
			eager, lazy *bitset.Set
		}{
			{"entry", p.Sol.Eager.ResIn.At(n.ID), p.Sol.Lazy.ResIn.At(n.ID)},
			{"exit", p.Sol.Eager.ResOut.At(n.ID), p.Sol.Lazy.ResOut.At(n.ID)},
		} {
			b := boundary
			nn := n
			bitset.Intersect(b.eager, b.lazy).ForEach(func(i int) {
				out = append(out, lintWarn(p, CodeZeroOverlap, i, nn,
					fmt.Sprintf("Send and Recv coincide at node %s: zero-overlap region hides no latency", b.name)))
			})
		}
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
