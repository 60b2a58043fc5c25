// Package memopt instantiates GIVE-N-TAKE for the memory-hierarchy
// problems the paper's §6 predicts it generalizes to: software
// prefetching. Array references are consumers of their (value-numbered)
// sections, definitions produce them "for free" (write-allocate) while
// destroying overlapping stale copies, and the solver's EAGER solution
// issues PREFETCH operations as early as possible while the LAZY
// solution marks the latest point the data must be resident — the same
// production region that split a READ into send and receive now splits a
// memory access into prefetch and demand.
//
// Everything below reuses the communication machinery: the section
// universe, the solver, and the trace-based evaluation; only the
// vocabulary (PREFETCH instead of READ, cache-miss latency instead of
// message latency) changes. That one framework serves both is exactly
// the paper's point.
package memopt

import (
	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/core"
	"givetake/internal/frontend"
	"givetake/internal/interp"
	"givetake/internal/interval"
	"givetake/internal/ir"
	"givetake/internal/place"
	"givetake/internal/sections"
	"givetake/internal/vn"
)

// Analysis is a solved prefetch-placement problem.
type Analysis struct {
	Prog     *ir.Program
	CFG      *cfg.Graph
	Graph    *interval.Graph
	Universe *sections.Universe
	Init     *core.Init
	Solution *core.Solution
}

// Analyze builds the prefetch problem for every array reference in the
// program (all arrays; distribution is irrelevant to a cache) and solves
// it as an EAGER/LAZY BEFORE problem.
func Analyze(prog *ir.Program) (*Analysis, error) {
	c, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Prog: prog, CFG: c, Graph: g, Universe: sections.NewUniverse()}

	env := vn.NewEnv(a.Universe.Tab)
	ranges := map[string]sections.LoopRange{}
	type ev struct {
		def   bool
		block *cfg.Block
		item  *sections.Item
	}
	var events []ev

	var refs func(e ir.Expr, b *cfg.Block)
	refs = func(e ir.Expr, b *cfg.Block) {
		for _, ref := range ir.ArrayRefs(e) {
			if b == nil {
				continue
			}
			if it := a.Universe.ItemFor(ref.Name, ref.Subs, env, ranges); it != nil {
				events = append(events, ev{def: false, block: b, item: it})
			}
		}
	}
	var walk func(stmts []ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ir.Assign:
				b := a.CFG.StmtBlock[s]
				refs(s.RHS, b)
				if lhs, ok := s.LHS.(*ir.ArrayRef); ok {
					for _, sub := range lhs.Subs {
						refs(sub, b)
					}
					if b != nil {
						if it := a.Universe.ItemFor(lhs.Name, lhs.Subs, env, ranges); it != nil {
							events = append(events, ev{def: true, block: b, item: it})
						}
					}
				} else if id, ok := s.LHS.(*ir.Ident); ok {
					env.Kill(id.Name)
				}
			case *ir.Do:
				h := a.CFG.LoopHeader[s]
				refs(s.Lo, h)
				refs(s.Hi, h)
				pop := env.PushLoop(s.Var, s.Lo, s.Hi, s.Step)
				old, had := ranges[s.Var]
				ranges[s.Var] = sections.LoopRange{Lo: s.Lo, Hi: s.Hi, Step: s.Step}
				walk(s.Body)
				pop()
				if had {
					ranges[s.Var] = old
				} else {
					delete(ranges, s.Var)
				}
			case *ir.If:
				refs(s.Cond, a.CFG.IfBranch[s])
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(prog.Body)

	u := a.Universe.Size()
	a.Init = core.NewInit(len(g.Nodes), u)
	overlapping := func(it *sections.Item, same bool) *bitset.Set {
		s := bitset.New(u)
		for _, other := range a.Universe.Items {
			if (other.ID != it.ID || same) && a.Universe.MayOverlap(other, it) {
				s.Add(other.ID)
			}
		}
		return s
	}
	for _, e := range events {
		n := g.NodeFor(e.block)
		if n == nil {
			continue
		}
		if e.def {
			// write-allocate: the defined section becomes resident, but
			// overlapping prefetched copies go stale
			a.Init.AddGive(n, bitset.Of(u, e.item.ID))
			a.Init.AddSteal(n, overlapping(e.item, false))
		} else {
			a.Init.AddTake(n, bitset.Of(u, e.item.ID))
		}
	}
	a.Solution, err = core.Solve(g, u, a.Init)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeSource parses and analyzes program text.
func AnalyzeSource(src string) (*Analysis, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(prog)
}

// Annotate inserts PREFETCH_Send (the eager issue point) and
// PREFETCH_Recv (the lazy demand fence: the latest point the data must
// be resident) into the program; the pair delimits the production region
// available for hiding the miss latency. The returned program is
// read-only: its PREFETCH statements share one section expression per
// item, and its unchanged statements are shared with a.Prog.
func (a *Analysis) Annotate() *ir.Program {
	table := a.Universe.SectionTable()
	return place.Annotate(a.Prog, a.CFG, func(dst []ir.Stmt, b *cfg.Block, entry bool) []ir.Stmt {
		n := a.Graph.NodeFor(b)
		if n == nil {
			return dst
		}
		add := func(half string, set *bitset.Set) {
			if set.IsEmpty() {
				return
			}
			c := &ir.Comm{Op: "PREFETCH", Half: half, Args: make([]ir.Expr, 0, set.Count())}
			set.ForEach(func(i int) {
				c.Args = append(c.Args, table.Expr(i))
			})
			dst = append(dst, c)
		}
		if entry {
			add("Send", a.Solution.Eager.ResIn.At(n.ID))
			add("Recv", a.Solution.Lazy.ResIn.At(n.ID))
		} else {
			add("Send", a.Solution.Eager.ResOut.At(n.ID))
			add("Recv", a.Solution.Lazy.ResOut.At(n.ID))
		}
		return dst
	})
}

// AnnotatedSource renders the annotated program.
func (a *Analysis) AnnotatedSource() string { return ir.ProgramString(a.Annotate()) }

// CacheModel estimates memory stalls from a trace of PREFETCH pairs.
type CacheModel struct {
	// MissLatency is the stall of an unhidden miss, in work units (one
	// interpreter step = one unit).
	MissLatency float64
}

// Stalls sums the exposed miss latency over all prefetch pairs: a demand
// arriving d steps after its issue stalls max(0, MissLatency − d).
func (m CacheModel) Stalls(tr *interp.Trace) float64 {
	type key struct{ args string }
	pending := map[key][]int64{}
	total := 0.0
	for _, e := range tr.Events {
		if e.Op != "PREFETCH" {
			continue
		}
		k := key{e.Args}
		switch e.Half {
		case "Send":
			pending[k] = append(pending[k], e.Step)
		case "Recv":
			q := pending[k]
			if len(q) == 0 {
				total += m.MissLatency // demand miss with no prefetch
				continue
			}
			issue := q[len(q)-1]
			pending[k] = q[:len(q)-1]
			if exposed := m.MissLatency - float64(e.Step-issue); exposed > 0 {
				total += exposed
			}
		}
	}
	return total
}
