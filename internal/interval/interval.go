// Package interval constructs the Tarjan-interval flow graph that
// GIVE-N-TAKE operates on (paper §3.3): a reducible CFG whose loops are
// identified as Tarjan intervals T(h) with unique header nodes, edges
// classified as ENTRY / CYCLE / JUMP / FORWARD plus SYNTHETIC edges from
// headers to jump targets, and the PREORDER / REVERSEPREORDER traversals
// of §3.4.
//
// Unlike classical interval analysis, no sequence of collapsed graphs is
// built; the solver walks this one graph. ROOT is the virtual header of
// the whole program: it parents the top-level nodes in the loop-nesting
// forest but carries no edges, so equations over its (nonexistent)
// neighbors yield the empty set, exactly as the paper's worked example
// requires (e.g. GIVEN_in(1) = ⊥ for the first real node).
package interval

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"givetake/internal/cfg"
)

// EdgeType classifies interval flow graph edges (paper §3.3).
type EdgeType int

const (
	// Forward edges stay within the same set of intervals.
	Forward EdgeType = iota
	// Entry edges go from an interval header into its interval.
	Entry
	// Cycle edges go from the unique last child of an interval back to
	// its header (Tarjan's cycle edges).
	Cycle
	// Jump edges leave an interval without passing through its header —
	// a jump out of a loop (Tarjan's cross edges).
	Jump
	// Synthetic edges connect an interval header to the sinks of Jump
	// edges originating inside the interval; they exist so safety
	// (TAKEN_out, Eq. 4) accounts for paths that skip the rest of a loop.
	Synthetic
)

func (t EdgeType) String() string {
	switch t {
	case Forward:
		return "F"
	case Entry:
		return "E"
	case Cycle:
		return "C"
	case Jump:
		return "J"
	case Synthetic:
		return "S"
	default:
		return fmt.Sprintf("EdgeType(%d)", int(t))
	}
}

// TypeSet is a bitmask of EdgeTypes, e.g. FJ or CEFJ.
type TypeSet uint8

// Mask returns the TypeSet containing only t.
func (t EdgeType) Mask() TypeSet { return 1 << uint(t) }

// Has reports whether ts includes t.
func (ts TypeSet) Has(t EdgeType) bool { return ts&t.Mask() != 0 }

// Named type sets used by the equations (paper §3.4 and Fig. 13).
const (
	F    = TypeSet(1 << Forward)
	E    = TypeSet(1 << Entry)
	C    = TypeSet(1 << Cycle)
	J    = TypeSet(1 << Jump)
	S    = TypeSet(1 << Synthetic)
	FJ   = F | J
	EF   = E | F
	FJS  = F | J | S
	CEFJ = C | E | F | J
	All  = CEFJ | S
)

// Edge is one classified edge.
type Edge struct {
	From, To *Node
	Type     EdgeType
}

// Node is an interval flow graph node.
type Node struct {
	// ID is the dense index of the node in Graph.Nodes.
	ID int
	// Block is the underlying CFG block; nil for the virtual ROOT.
	Block *cfg.Block
	// Parent is the innermost enclosing interval header (ROOT for
	// top-level nodes; nil for ROOT itself). J(n) in the paper is
	// T(Parent(n)).
	Parent *Node
	// Level is the loop nesting level; LEVEL(ROOT) = 0.
	Level int
	// IsHeader reports whether the node heads a non-empty interval.
	IsHeader bool
	// Children are the interval members one level deeper
	// (CHILDREN(n) in the paper), in preorder.
	Children []*Node
	// LastChild is the source of the unique CYCLE edge into this header
	// (LASTCHILD(n)); nil for non-headers and for ROOT.
	LastChild *Node
	// EntryHeader is HEADER(n): the source of the ENTRY edge reaching n,
	// or nil. Only "first children" of an interval have one.
	EntryHeader *Node

	Out []Edge
	In  []Edge

	// Pre is the node's position in Graph.Preorder.
	Pre int

	// NoHoist suppresses hoisting consumption out of this interval
	// (paper §4.1 STEAL_init remark and §5.3): the header ignores the
	// TAKE contributions coming from the loop body. Set automatically on
	// the reversed view for loops containing Jump edges; may also be set
	// by clients to pin production inside zero-trip loops.
	NoHoist bool
}

func (n *Node) String() string {
	if n.Block == nil {
		return "ROOT"
	}
	return fmt.Sprintf("n%d(%v)", n.ID, n.Block)
}

// Succs appends to buf the sinks of out-edges whose type is in ts.
func (n *Node) Succs(ts TypeSet, buf []*Node) []*Node {
	for _, e := range n.Out {
		if ts.Has(e.Type) {
			buf = append(buf, e.To)
		}
	}
	return buf
}

// Preds appends to buf the sources of in-edges whose type is in ts.
func (n *Node) Preds(ts TypeSet, buf []*Node) []*Node {
	for _, e := range n.In {
		if ts.Has(e.Type) {
			buf = append(buf, e.From)
		}
	}
	return buf
}

// CountPreds returns the number of in-edges with a type in ts.
func (n *Node) CountPreds(ts TypeSet) int {
	c := 0
	for _, e := range n.In {
		if ts.Has(e.Type) {
			c++
		}
	}
	return c
}

// Graph is the interval flow graph.
type Graph struct {
	// Nodes are the real nodes (ROOT excluded), indexed by ID.
	Nodes []*Node
	// Root is the virtual whole-program header.
	Root *Node
	// Preorder lists the real nodes in PREORDER (forward and downward,
	// §3.4); REVERSEPREORDER is this slice walked backwards.
	Preorder []*Node
	// CFG is the underlying control flow graph.
	CFG *cfg.Graph
	// Reversed marks a graph produced by Reverse (used for AFTER
	// problems); Jump edges then point into intervals rather than out.
	Reversed bool
}

// NodeFor returns the interval node of a CFG block, or nil if b is not
// one of the graph's blocks. Node i is the node of CFG block i, so the
// block's ID is the index; a block that cfg.Compact pruned keeps a
// stale ID, possibly a live block's, so the node's block must be b.
func (g *Graph) NodeFor(b *cfg.Block) *Node {
	if b == nil || b.ID < 0 || b.ID >= len(g.Nodes) {
		return nil
	}
	if n := g.Nodes[b.ID]; n.Block == b {
		return n
	}
	return nil
}

// InInterval reports n ∈ T(h).
func InInterval(n, h *Node) bool {
	for p := n.Parent; p != nil; p = p.Parent {
		if p == h {
			return true
		}
	}
	return false
}

// FromCFG builds the interval flow graph for a normalized CFG. The CFG
// must be reducible, have no critical edges, and funnel each loop through
// a unique latch (all guaranteed by cfg.Build; hand-built graphs are
// verified and rejected with an error).
func FromCFG(c *cfg.Graph) (*Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// one dominator tree answers both the reducibility test and the
	// back-edge queries of the loop forest
	dom := c.DomTree()
	if !dom.Reducible() {
		return nil, fmt.Errorf("interval: graph is irreducible; apply node splitting first (cfg.MakeReducible)")
	}

	g := &Graph{CFG: c}
	g.Root = &Node{ID: -1, Level: 0, IsHeader: true}

	// The nodes are carved from one slice; node i is the node of block
	// i (cfg.Validate guarantees c.Blocks[i].ID == i).
	nodes := make([]Node, len(c.Blocks))
	g.Nodes = make([]*Node, len(c.Blocks))
	for i, b := range c.Blocks {
		nodes[i] = Node{ID: i, Block: b, Parent: g.Root, Level: 1}
		g.Nodes[i] = &nodes[i]
	}

	if err := g.buildLoopForest(dom); err != nil {
		return nil, err
	}
	if err := g.classifyEdges(); err != nil {
		return nil, err
	}
	g.computePreorder()
	if err := g.check(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildLoopForest discovers natural loops from back edges and assigns
// Parent/Level. With the unique-latch normalization every header has
// exactly one back edge; multiple back edges to one header are rejected.
func (g *Graph) buildLoopForest(dom *cfg.DomTree) error {
	// loop membership per header, innermost assignment wins later; the
	// bodies of all loops are consecutive runs of one members slice
	type loop struct {
		header *Node
		lo, hi int // body = members[lo:hi]
	}
	var loops []loop
	var members, stack []*Node
	// mark[n.ID] == k+1 while loop k's body is being collected
	mark := make([]int32, len(g.Nodes))

	for _, b := range g.CFG.Blocks {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			h := g.Nodes[s.ID]
			m := g.Nodes[b.ID]
			if h.IsHeader {
				return fmt.Errorf("interval: header %v has multiple CYCLE edges; merge latches first", h)
			}
			stamp := int32(len(loops) + 1)
			lo := len(members)
			// natural loop: nodes that reach the latch without passing h
			if m != h {
				mark[m.ID] = stamp
				members = append(members, m)
				stack = append(stack[:0], m)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range n.Block.Preds {
					pn := g.Nodes[p.ID]
					if pn != h && mark[pn.ID] != stamp {
						mark[pn.ID] = stamp
						members = append(members, pn)
						stack = append(stack, pn)
					}
				}
			}
			loops = append(loops, loop{header: h, lo: lo, hi: len(members)})
			h.IsHeader = true
			h.LastChild = m
		}
	}

	// sort loops by body size ascending so that assigning parents from
	// the smallest loop up makes the innermost header win
	sort.Slice(loops, func(i, j int) bool { return loops[i].hi-loops[i].lo < loops[j].hi-loops[j].lo })

	// headers themselves: a header's parent is the innermost loop that
	// contains it as a body member — handled here too, since headers of
	// inner loops are body members of outer loops. Natural loops of a
	// reducible graph nest, so the loops whose body holds n are exactly
	// the headers on n's Parent chain: each adds one to n's level. A
	// node still parented by ROOT has not been assigned yet.
	for _, l := range loops {
		for _, n := range members[l.lo:l.hi] {
			if n.Parent == g.Root {
				n.Parent = l.header
			}
			n.Level++
		}
	}
	return nil
}

// classifyEdges types every CFG edge per §3.3 and adds the synthetic
// edges. Every node's In and Out lists are carved from one slice, sized
// by a first pass that types the edges and counts the synthetic edges
// each jump adds (an upper bound: duplicates are collapsed later).
func (g *Graph) classifyEdges() error {
	nOut := make([]int, 2*len(g.Nodes))
	nIn := nOut[len(g.Nodes):]
	var types []EdgeType
	total := 0
	for _, b := range g.CFG.Blocks {
		m := g.Nodes[b.ID]
		for _, sb := range b.Succs {
			n := g.Nodes[sb.ID]
			t, err := classify(m, n)
			if err != nil {
				return err
			}
			types = append(types, t)
			nOut[m.ID]++
			nIn[n.ID]++
			total++
			switch t {
			case Entry:
				if n.EntryHeader != nil && n.EntryHeader != m {
					return fmt.Errorf("interval: node %v has multiple entry headers", n)
				}
				n.EntryHeader = m
			case Cycle:
				if n.LastChild != m {
					return fmt.Errorf("interval: cycle edge %v -> %v does not match recorded latch %v", m, n, n.LastChild)
				}
			case Jump:
				for h := m.Parent; leaves(n, h); h = h.Parent {
					nOut[h.ID]++
					nIn[n.ID]++
					total++
				}
			}
		}
	}
	edges := make([]Edge, 2*total)
	for i, n := range g.Nodes {
		n.Out, edges = edges[:0:nOut[i]], edges[nOut[i]:]
		n.In, edges = edges[:0:nIn[i]], edges[nIn[i]:]
	}
	k := 0
	for _, b := range g.CFG.Blocks {
		m := g.Nodes[b.ID]
		for _, sb := range b.Succs {
			n := g.Nodes[sb.ID]
			e := Edge{From: m, To: n, Type: types[k]}
			k++
			m.Out = append(m.Out, e)
			n.In = append(n.In, e)
		}
	}
	g.addSyntheticEdges()
	return nil
}

// leaves reports whether a jump to n leaves the interval of the real
// header h: n ∉ T+(h). Walking h up the Parent chain of the jump's
// source while leaves holds visits exactly the intervals the jump
// leaves, innermost first.
func leaves(n, h *Node) bool {
	return h != nil && h.Block != nil && n != h && !InInterval(n, h)
}

func classify(m, n *Node) (EdgeType, error) {
	switch {
	case n.IsHeader && InInterval(m, n):
		return Cycle, nil
	case m.IsHeader && InInterval(n, m):
		return Entry, nil
	default:
		// Jump if there is a header h with m ∈ T(h) and n ∉ T+(h);
		// intervals nest, so if any such h exists, m's own is one.
		if leaves(n, m.Parent) {
			return Jump, nil
		}
		// Forward requires the same interval memberships.
		if m.Parent != n.Parent {
			// n deeper than m without m being its header: a jump into a
			// loop, impossible in a reducible graph.
			return 0, fmt.Errorf("interval: edge %v -> %v enters interval %v illegally", m, n, n.Parent)
		}
		return Forward, nil
	}
}

// addSyntheticEdges adds, for each Jump edge (m, n) and each header h
// with m ∈ T(h) and n ∉ T+(h), the edge (h, n). That is LEVEL(m)−LEVEL(n)
// edges per Jump edge when the jump lands at the target's own level.
// Duplicate synthetic edges (two jumps from one interval to one sink) are
// collapsed.
func (g *Graph) addSyntheticEdges() {
	for _, m := range g.Nodes {
		for _, e := range m.Out {
			if e.Type != Jump {
				continue
			}
			n := e.To
			for h := m.Parent; leaves(n, h); h = h.Parent {
				if !hasSynthetic(n, h) {
					se := Edge{From: h, To: n, Type: Synthetic}
					h.Out = append(h.Out, se)
					n.In = append(n.In, se)
				}
			}
		}
	}
}

// hasSynthetic reports whether n already has the synthetic edge h → n.
func hasSynthetic(n, h *Node) bool {
	for _, e := range n.In {
		if e.Type == Synthetic && e.From == h {
			return true
		}
	}
	return false
}

// computePreorder orders nodes forward (edge sources before sinks over
// non-CYCLE edges) and downward (headers before interval members), with
// deeper nodes preferred among ready candidates so an interval is emitted
// contiguously after its header, matching the numbering of paper Fig. 12.
func (g *Graph) computePreorder() {
	indeg := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, e := range n.In {
			if e.Type != Cycle {
				indeg[n.ID]++
			}
		}
	}
	ready := make(readyQueue, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			heap.Push(&ready, n)
		}
	}
	g.Preorder = make([]*Node, 0, len(g.Nodes))
	for ready.Len() > 0 {
		n := heap.Pop(&ready).(*Node)
		n.Pre = len(g.Preorder)
		g.Preorder = append(g.Preorder, n)
		for _, e := range n.Out {
			if e.Type == Cycle {
				continue
			}
			if indeg[e.To.ID]--; indeg[e.To.ID] == 0 {
				heap.Push(&ready, e.To)
			}
		}
	}
	// children lists in preorder
	for _, n := range g.Nodes {
		n.Children = n.Children[:0]
	}
	g.Root.Children = g.Root.Children[:0]
	for _, n := range g.Preorder {
		if n.Parent != nil {
			n.Parent.Children = append(n.Parent.Children, n)
		}
	}
}

// readyQueue is computePreorder's ready set, a heap that pops the
// deepest node first and the lowest ID among equally deep ones.
type readyQueue []*Node

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	return a.Level > b.Level || (a.Level == b.Level && a.ID < b.ID)
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(*Node)) }
func (q *readyQueue) Pop() any {
	old := *q
	n := old[len(old)-1]
	*q = old[:len(old)-1]
	return n
}

// check verifies the §3.3 requirements and the preorder invariants.
func (g *Graph) check() error {
	if len(g.Preorder) != len(g.Nodes) {
		return fmt.Errorf("interval: preorder covered %d of %d nodes (cycle through non-CYCLE edges?)", len(g.Preorder), len(g.Nodes))
	}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			switch e.Type {
			case Cycle:
				// the source of a CYCLE edge has no other successors
				if len(n.Out) != 1 {
					return fmt.Errorf("interval: latch %v has extra successors", n)
				}
			case Jump:
				// the sink of a JUMP edge has no CEF predecessors
				if e.To.CountPreds(CEFJ) != 1 {
					return fmt.Errorf("interval: jump sink %v has multiple predecessors", e.To)
				}
			}
			if e.Type != Cycle && e.From.Pre >= e.To.Pre {
				return fmt.Errorf("interval: preorder violates forward order on %v -> %v", e.From, e.To)
			}
		}
		if n.Parent != nil && n.Parent.Block != nil && n.Parent.Pre >= n.Pre {
			return fmt.Errorf("interval: preorder violates downward order for %v", n)
		}
	}
	return nil
}

// LevelStats summarizes the interval nesting of the graph for the
// observability layer: the deepest level among real nodes (1 when the
// program has no loops) and per-level node counts, indexed by level
// (index 0 is always zero — only the virtual ROOT lives at level 0).
func (g *Graph) LevelStats() (maxLevel int, perLevel []int) {
	for _, n := range g.Nodes {
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
	}
	perLevel = make([]int, maxLevel+1)
	for _, n := range g.Nodes {
		perLevel[n.Level]++
	}
	return maxLevel, perLevel
}

// String renders nodes in preorder with their typed out-edges.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, n := range g.Preorder {
		fmt.Fprintf(&sb, "%2d L%d %-30s ->", n.Pre+1, n.Level, n.String())
		for _, e := range n.Out {
			fmt.Fprintf(&sb, " %d%s", e.To.Pre+1, e.Type)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
