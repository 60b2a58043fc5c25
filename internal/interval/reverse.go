package interval

import "fmt"

// reversedType maps an edge type to its type in the reversed view.
var reversedType = [...]EdgeType{
	Entry:     Cycle,
	Cycle:     Entry,
	Forward:   Forward,
	Jump:      Jump,
	Synthetic: Synthetic,
}

// Reverse builds the reversed view of g used to solve AFTER problems
// (paper §5.3): an AFTER problem is a BEFORE problem with reversed flow
// of control. The reversed graph keeps the same nodes (same IDs and
// Blocks), the same interval structure, and the same levels; edges are
// reversed with their types remapped:
//
//	ENTRY (h→c)  becomes CYCLE (c→h); the original unique first child
//	             becomes the unique last child, so g must have exactly
//	             one ENTRY edge per interval (guaranteed by cfg.Build).
//	CYCLE (l→h)  becomes ENTRY (h→l).
//	FORWARD      stays FORWARD, reversed.
//	JUMP (m→x)   becomes a jump *into* the loop (x→m), which would make
//	             the reversed graph irreducible. Following §5.3 we keep
//	             the original interval structure and instead mark every
//	             interval the jump leaves as NoHoist, so no production is
//	             hoisted out of it; the solver additionally treats such
//	             inverted Jump edges conservatively in the local
//	             summaries (Eqs. 9–10).
//	SYNTHETIC    stays SYNTHETIC, reversed.
//
// Node IDs are preserved, so initial and result variables indexed by ID
// transfer directly; RES_in on the reversed graph is production at the
// node's *exit* in original orientation, and vice versa.
func Reverse(g *Graph) (*Graph, error) {
	r := &Graph{CFG: g.CFG, Reversed: true}
	r.Root = &Node{ID: -1, Level: 0, IsHeader: true}

	// The clones and their edge lists are carved from one slice each, so
	// reversing costs a fixed number of allocations. A clone gets one
	// out-edge per original in-edge and vice versa.
	nodes := make([]Node, len(g.Nodes))
	clone := make([]*Node, len(g.Nodes))
	size := 0
	for _, n := range g.Nodes {
		size += len(n.In) + len(n.Out)
	}
	edges := make([]Edge, size)
	carve := func(k int) []Edge {
		e := edges[:0:k]
		edges = edges[k:]
		return e
	}
	for i, n := range g.Nodes {
		nodes[i] = Node{
			ID:       n.ID,
			Block:    n.Block,
			Level:    n.Level,
			IsHeader: n.IsHeader,
			NoHoist:  n.NoHoist,
			Out:      carve(len(n.In)),
			In:       carve(len(n.Out)),
		}
		clone[i] = &nodes[i]
	}
	get := func(n *Node) *Node {
		if n == g.Root {
			return r.Root
		}
		return clone[n.ID]
	}
	for i, n := range g.Nodes {
		clone[i].Parent = get(n.Parent)
	}
	r.Nodes = clone

	// Unique-entry requirement, and reversed roles of first/last child.
	for _, n := range g.Nodes {
		if !n.IsHeader {
			continue
		}
		var first *Node
		for _, e := range n.Out {
			if e.Type == Entry {
				if first != nil {
					return nil, fmt.Errorf("interval: Reverse: header %v has multiple ENTRY edges; the reversed graph would have multiple CYCLE edges", n)
				}
				first = e.To
			}
		}
		if first == nil {
			return nil, fmt.Errorf("interval: Reverse: header %v has no ENTRY edge", n)
		}
		clone[n.ID].LastChild = clone[first.ID]
		if lc := n.LastChild; lc != nil {
			clone[lc.ID].EntryHeader = clone[n.ID]
		}
	}

	for _, n := range g.Nodes {
		for _, e := range n.Out {
			re := Edge{From: get(e.To), To: get(e.From), Type: reversedType[e.Type]}
			re.From.Out = append(re.From.Out, re)
			re.To.In = append(re.To.In, re)
			if e.Type == Jump {
				// §5.3 guard: every interval the jump leaves loses the
				// right to hoist consumption out of itself.
				for h := e.From.Parent; leaves(e.To, h); h = h.Parent {
					clone[h.ID].NoHoist = true
				}
			}
		}
	}

	r.computePreorder()
	if len(r.Preorder) != len(r.Nodes) {
		return nil, fmt.Errorf("interval: Reverse: preorder covered %d of %d nodes", len(r.Preorder), len(r.Nodes))
	}
	for _, n := range r.Nodes {
		for _, e := range n.Out {
			if e.Type != Cycle && e.From.Pre >= e.To.Pre {
				return nil, fmt.Errorf("interval: Reverse: forward order violated on %v -> %v", e.From, e.To)
			}
		}
	}
	return r, nil
}
