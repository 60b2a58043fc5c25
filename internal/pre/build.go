package pre

import (
	"encoding/json"
	"fmt"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/core"
	"givetake/internal/interval"
	"givetake/internal/ir"
)

// BuildProblem derives a classical PRE instance from a program's CFG:
// the universe is the set of distinct non-trivial right-hand-side
// expressions (by printed form — syntactic equivalence, as in [MR79]),
// a block Uses the expression it evaluates, and an assignment to any
// operand kills every expression mentioning it.
func BuildProblem(g *cfg.Graph) (*Problem, []string) {
	// pass 1: the universe
	index := map[string]int{}
	var names []string
	exprOf := func(e ir.Expr) (int, bool) {
		if _, isBin := e.(*ir.BinExpr); !isBin {
			return 0, false // only compound expressions are PRE candidates
		}
		key := ir.ExprString(e)
		if id, ok := index[key]; ok {
			return id, true
		}
		index[key] = len(names)
		names = append(names, key)
		return len(names) - 1, true
	}
	type use struct {
		b  *cfg.Block
		id int
	}
	type kill struct {
		b   *cfg.Block
		sym string
	}
	var uses []use
	var kills []kill
	for _, b := range g.Blocks {
		if b.Kind != cfg.KStmt {
			continue
		}
		a, ok := b.Stmt.(*ir.Assign)
		if !ok {
			continue
		}
		if id, ok := exprOf(a.RHS); ok {
			uses = append(uses, use{b, id})
		}
		switch lhs := a.LHS.(type) {
		case *ir.Ident:
			kills = append(kills, kill{b, lhs.Name})
		case *ir.ArrayRef:
			kills = append(kills, kill{b, lhs.Name})
		}
	}

	p := NewProblem(g, len(names))
	for _, u := range uses {
		p.Used[u.b.ID].Add(u.id)
	}
	// pass 2: kills — an expression mentions a symbol if the identifier
	// or array name occurs in its text; resolve via the parsed forms
	mentions := make([]map[string]bool, len(names))
	for _, b := range g.Blocks {
		if b.Kind != cfg.KStmt {
			continue
		}
		a, ok := b.Stmt.(*ir.Assign)
		if !ok {
			continue
		}
		if id, ok := exprOf(a.RHS); ok && mentions[id] == nil {
			m := map[string]bool{}
			ir.WalkExpr(a.RHS, func(e ir.Expr) bool {
				switch e := e.(type) {
				case *ir.Ident:
					m[e.Name] = true
				case *ir.ArrayRef:
					m[e.Name] = true
				}
				return true
			})
			mentions[id] = m
		}
	}
	for _, k := range kills {
		for id, m := range mentions {
			if m != nil && m[k.sym] {
				p.Transp[k.b.ID].Remove(id)
			}
		}
	}
	return p, names
}

// LoopDepths returns the loop nesting depth of every block (0 = outside
// all loops), from the natural loops of the reducible CFG.
func LoopDepths(g *cfg.Graph) []int {
	depth := make([]int, len(g.Blocks))
	dom := g.DomTree()
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue
			}
			// natural loop of back edge (b, s)
			inLoop := map[*cfg.Block]bool{s: true, b: true}
			stack := []*cfg.Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, q := range n.Preds {
					if !inLoop[q] {
						inLoop[q] = true
						stack = append(stack, q)
					}
				}
			}
			for blk := range inLoop {
				depth[blk.ID]++
			}
		}
	}
	return depth
}

// GiveNTake solves the same PRE instance with the paper's framework as a
// LAZY BEFORE problem (classical PRE is exactly that instance, §1): Used
// becomes TAKE_init, killed expressions become STEAL_init, and the LAZY
// solution gives the computation points. The practical difference from
// the safe baselines: consumption inside potentially zero-trip loops is
// hoisted out (Eq. 5), so loop-invariant expressions move above DO loops
// the classical frameworks must leave alone.
func (p *Problem) GiveNTake() (*Placement, *core.Solution, error) {
	g, err := interval.FromCFG(p.G)
	if err != nil {
		return nil, nil, err
	}
	init := core.NewInit(len(g.Nodes), p.Universe)
	for _, n := range g.Nodes {
		id := n.Block.ID
		if !p.Used[id].IsEmpty() {
			init.AddTake(n, p.Used[id])
		}
		killed := bitset.NewFull(p.Universe)
		killed.SubtractWith(p.Transp[id])
		if !killed.IsEmpty() {
			init.AddSteal(n, killed)
		}
	}
	s, err := core.Solve(g, p.Universe, init)
	if err != nil {
		return nil, nil, err
	}
	pl := &Placement{Insert: p.sets(), Redundant: p.sets(), Iterations: 1}
	for _, n := range g.Nodes {
		id := n.Block.ID
		// RES_in of a loop header materializes before the DO statement —
		// the preheader position, executed once per loop entry — so it is
		// attributed to the unique predecessor outside the loop.
		if n.IsHeader {
			var outside *cfg.Block
			for _, pr := range n.Block.Preds {
				if pn := g.NodeFor(pr); pn != nil && pn != n.LastChild && !interval.InInterval(pn, n) {
					outside = pr
				}
			}
			if outside != nil {
				pl.Insert[outside.ID].UnionWith(s.Lazy.ResIn.At(n.ID))
			} else {
				pl.Insert[id].UnionWith(s.Lazy.ResIn.At(n.ID))
			}
		} else {
			pl.Insert[id].UnionWith(s.Lazy.ResIn.At(n.ID))
		}
		pl.Insert[id].UnionWith(s.Lazy.ResOut.At(n.ID))
		// a use whose value is already available on entry is redundant
		pl.Redundant[id] = bitset.Intersect(p.Used[id], s.Lazy.GivenIn.At(n.ID))
	}
	return pl, s, nil
}

// Computations returns, per block, where the program actually evaluates
// the expression after the transformation: the insertions plus the
// original uses that were not made redundant and not covered by an
// insertion at the same block.
func (p *Problem) Computations(pl *Placement) []*bitset.Set {
	out := p.sets()
	for _, b := range p.G.Blocks {
		c := pl.Insert[b.ID].Clone()
		kept := bitset.Subtract(p.Used[b.ID], pl.Redundant[b.ID])
		kept.SubtractWith(pl.Insert[b.ID])
		c.UnionWith(kept)
		out[b.ID] = c
	}
	return out
}

// Metrics aggregates a placement for comparison across analyses.
type Metrics struct {
	// Inserts counts (block, expression) insertion points; Weighted
	// scales each by 10^loopdepth, a static execution-frequency estimate.
	Inserts  int
	Weighted float64
	// Replaced counts uses whose recomputation the analysis removed.
	Replaced int
}

func (m Metrics) String() string {
	return fmt.Sprintf("inserts=%d weighted=%.0f replaced=%d", m.Inserts, m.Weighted, m.Replaced)
}

// MarshalJSON gives Metrics a stable wire shape (snake_case keys) so
// reports and benchmark artifacts can embed it without depending on Go
// field names.
func (m Metrics) MarshalJSON() ([]byte, error) {
	type wire struct {
		Inserts  int     `json:"inserts"`
		Weighted float64 `json:"weighted"`
		Replaced int     `json:"replaced"`
	}
	return json.Marshal(wire{Inserts: m.Inserts, Weighted: m.Weighted, Replaced: m.Replaced})
}

// Measure summarizes a placement over the CFG.
func (p *Problem) Measure(pl *Placement) Metrics {
	depth := LoopDepths(p.G)
	var m Metrics
	for _, b := range p.G.Blocks {
		c := pl.Insert[b.ID].Count()
		m.Inserts += c
		w := 1.0
		for i := 0; i < depth[b.ID]; i++ {
			w *= 10
		}
		m.Weighted += float64(c) * w
		m.Replaced += pl.Redundant[b.ID].Count()
	}
	return m
}
