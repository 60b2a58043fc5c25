package cfg

// Dominators computes the immediate-dominator relation with the
// Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"). It returns idom indexed by Block.ID; idom[entry] = entry,
// and idom[b] = nil for blocks unreachable from entry.
func (g *Graph) Dominators() []*Block {
	rpo := g.ReversePostorder()
	pos := make([]int, len(g.Blocks))
	for i, b := range rpo {
		pos[b.ID] = i
	}
	idom := make([]*Block, len(g.Blocks))
	idom[g.Entry.ID] = g.Entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for pos[a.ID] > pos[b.ID] {
				a = idom[a.ID]
			}
			for pos[b.ID] > pos[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p.ID] == nil {
					continue // p not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// DomTree is the dominator tree of a graph, numbered so that a
// dominance query is an interval test instead of a walk up the idom
// chain: a dominates b iff a's preorder and postorder numbers bracket
// b's. It is a snapshot of the graph it was built from; rebuild it
// after adding or removing edges.
type DomTree struct {
	g *Graph
	// pre and post number each block on entry to and exit from its
	// subtree in one depth-first walk of the tree; -1 marks blocks
	// unreachable from entry.
	pre, post []int
}

// DomTree computes the dominators of g and numbers the dominator tree.
// The walk is iterative: the tree of a long straight-line program is as
// deep as the program is long.
func (g *Graph) DomTree() *DomTree {
	n := len(g.Blocks)
	idom := g.Dominators()
	t := &DomTree{g: g, pre: make([]int, n), post: make([]int, n)}
	// children as sibling lists: first[p] and next[c] hold a block ID
	// plus one, zero ending the list
	first := make([]int, n)
	next := make([]int, n)
	for _, b := range g.Blocks {
		t.pre[b.ID], t.post[b.ID] = -1, -1
		if p := idom[b.ID]; p != nil && p != b {
			next[b.ID] = first[p.ID]
			first[p.ID] = b.ID + 1
		}
	}
	clock := 0
	t.pre[g.Entry.ID] = clock
	stack := []int{g.Entry.ID}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if c := first[v]; c != 0 {
			first[v] = next[c-1]
			clock++
			t.pre[c-1] = clock
			stack = append(stack, c-1)
			continue
		}
		stack = stack[:len(stack)-1]
		clock++
		t.post[v] = clock
	}
	return t
}

// Dominates reports whether a dominates b. Every block dominates
// itself; a block unreachable from entry dominates no other block and
// is dominated by no other block.
func (t *DomTree) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	// the -1 of an unreachable block fails one of the strict tests
	return t.pre[a.ID] < t.pre[b.ID] && t.post[b.ID] < t.post[a.ID]
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder of a DFS following successor edges.
func (g *Graph) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// BackEdges returns the edges (m, h) where h dominates m — the loop back
// edges of a reducible graph.
func (g *Graph) BackEdges() [][2]*Block {
	t := g.DomTree()
	var out [][2]*Block
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if t.Dominates(s, b) {
				out = append(out, [2]*Block{b, s})
			}
		}
	}
	return out
}

// Reducible reports whether the graph is reducible: removing all back
// edges (sink dominates source) must leave an acyclic graph. Programs
// accepted by the frontend are reducible by construction; hand-built
// graphs may not be.
func (g *Graph) Reducible() bool { return g.DomTree().Reducible() }

// Reducible reports whether the graph t was built from is reducible
// (see Graph.Reducible), reusing t's dominance numbering.
func (t *DomTree) Reducible() bool {
	g := t.g
	// Kahn's algorithm on the forward (non-back) edges.
	indeg := make([]int, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !t.Dominates(s, b) {
				indeg[s.ID]++
			}
		}
	}
	var queue []*Block
	for _, b := range g.Blocks {
		if indeg[b.ID] == 0 {
			queue = append(queue, b)
		}
	}
	removed := 0
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, s := range b.Succs {
			if !t.Dominates(s, b) {
				if indeg[s.ID]--; indeg[s.ID] == 0 {
					queue = append(queue, s)
				}
			}
		}
	}
	return removed == len(g.Blocks)
}
