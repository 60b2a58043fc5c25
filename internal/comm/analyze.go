// Package comm implements the paper's motivating application:
// communication generation for data-parallel programs with distributed
// arrays (§2, §3.1). References to distributed data become consumers of
// a READ problem (BEFORE: data must arrive before use), definitions
// become consumers of a WRITE problem (AFTER: data must be written back
// to their owners afterwards), and local definitions double as free
// producers for the READ problem — the "comes for free" side effect that
// removes redundant fetches.
//
// The result of Analyze is a pair of GIVE-N-TAKE solutions; Annotate
// maps them back onto the source as READ/WRITE_{Send,Recv} statements,
// reproducing the annotated codes of Figures 2, 3, and 14.
package comm

import (
	"context"
	"fmt"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/core"
	"givetake/internal/interval"
	"givetake/internal/ir"
	"givetake/internal/obs"
	"givetake/internal/sections"
	"givetake/internal/vn"
)

// Opts tunes an analysis beyond observability.
type Opts struct {
	// SuppressHoist marks every loop header NoHoist before solving, the
	// paper's STEAL_init option applied globally (§4.1, §5.3): no
	// consumption is hoisted across any loop boundary, so no zero-trip
	// speculation remains. It is the serve degradation ladder's second
	// rung — a strictly more conservative, still balanced placement to
	// retry with when the full solution fails verification.
	SuppressHoist bool
}

// Analysis carries the communication-placement results of one program.
type Analysis struct {
	Prog     *ir.Program
	CFG      *cfg.Graph
	Graph    *interval.Graph
	RevGraph *interval.Graph
	Universe *sections.Universe

	// ReadInit/WriteInit are the initial variables of the two problems
	// (node-indexed). The READ problem runs on Graph (BEFORE), the WRITE
	// problem on RevGraph (AFTER).
	ReadInit, WriteInit *core.Init

	// Read and Write are the solved placements. Write is nil when the
	// program defines no distributed data.
	Read, Write *core.Solution

	// Reduce maps universe item IDs to the reduction the owner applies
	// to their write-backs ("SUM", "PROD", "MAX", "MIN"). An item is a
	// reduction item when every definition of it is a same-operator
	// accumulation (x(s) = x(s) op e) and it is never read outside its
	// own accumulations — then the local copies hold partial results,
	// only WRITE_<op> communication is generated, and no READ fetches it
	// (paper §6: "WRITEs combined with different reduction operations").
	Reduce map[int]string
}

// Analyze is the sequential analysis entry point. It parses nothing:
// it takes a checked program, builds the interval flow graph and the
// section universe, derives the READ and WRITE initial sets, applies
// opts, and solves both placement problems. Each stage is wrapped in a
// span on ocol, annotated with its headline sizes; a nil collector
// records nothing. ctx is polled between stages and inside both solves
// (at interval node granularity), and the analysis aborts with
// ctx.Err() once it is canceled. A solver one-pass violation surfaces
// as core.ErrInvariant rather than a panic.
//
// The same steps are exported one by one (StageCFG, StageIntervals,
// StageUniverse, ApplyOpts, SolveRead, SolveWrite) for a stage
// scheduler. The two solves share no mutable state — SolveRead touches
// only Read, SolveWrite only RevGraph and Write, and neither mutates
// the graph — so a scheduler may run them concurrently
// (internal/engine does).
func Analyze(ctx context.Context, prog *ir.Program, ocol obs.Collector, opts Opts) (*Analysis, error) {
	a, err := build(ctx, prog, ocol)
	if err != nil {
		return nil, err
	}
	a.ApplyOpts(opts)
	if err := a.SolveRead(ctx, ocol, nil); err != nil {
		return nil, err
	}
	if err := a.SolveWrite(ctx, ocol, nil); err != nil {
		return nil, err
	}
	return a, nil
}

// build runs the solver-free front half of the pipeline: CFG, interval
// reduction, section universe, event collection, and the READ/WRITE
// initial variables. Both the full analysis and the atomic fallback
// start from exactly this state. The three stages are exported
// individually (StageCFG, StageIntervals, StageUniverse) so a stage
// scheduler can run each program's front half as separate tasks;
// build is their sequential composition.
func build(ctx context.Context, prog *ir.Program, ocol obs.Collector) (*Analysis, error) {
	a, err := StageCFG(ctx, prog, ocol)
	if err != nil {
		return nil, err
	}
	if err := a.StageIntervals(ctx, ocol); err != nil {
		return nil, err
	}
	if err := a.StageUniverse(ctx, ocol); err != nil {
		return nil, err
	}
	return a, nil
}

// StageCFG is the first pipeline stage: control-flow-graph
// construction. It returns a partial Analysis holding only the program
// and its CFG; StageIntervals and StageUniverse fill in the rest.
func StageCFG(ctx context.Context, prog *ir.Program, ocol obs.Collector) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	end := obs.Begin(ocol, obs.SpanCFGBuild)
	c, err := cfg.Build(prog)
	if err != nil {
		end()
		return nil, err
	}
	end("blocks", len(c.Blocks))
	return &Analysis{Prog: prog, CFG: c}, nil
}

// StageIntervals is the second pipeline stage: the interval
// (loop-forest) reduction of the CFG built by StageCFG.
func (a *Analysis) StageIntervals(ctx context.Context, ocol obs.Collector) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	end := obs.Begin(ocol, obs.SpanIntervalReduce)
	g, err := interval.FromCFG(a.CFG)
	if err != nil {
		end()
		return err
	}
	a.Graph = g
	maxLevel, _ := g.LevelStats()
	end("nodes", len(g.Nodes), "max-level", maxLevel)
	return nil
}

// StageUniverse is the third pipeline stage: section-universe
// collection, event classification, and the READ/WRITE initial
// variables. After it returns the Analysis is ready for ApplyOpts and
// the two solves.
func (a *Analysis) StageUniverse(ctx context.Context, ocol obs.Collector) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	prog, g := a.Prog, a.Graph
	a.Universe = sections.NewUniverse()
	end := obs.Begin(ocol, obs.SpanSectionUniverse)
	col := &collector{a: a, env: vn.NewEnv(a.Universe.Tab), ranges: map[string]sections.LoopRange{}}
	col.walk(prog.Body)
	if col.err != nil {
		end()
		return col.err
	}

	a.Reduce = col.classifyReductions()
	u := a.Universe.Size()
	a.ReadInit = core.NewInit(len(g.Nodes))
	a.WriteInit = core.NewInit(len(g.Nodes))
	for _, ev := range col.events {
		n := g.NodeFor(ev.block)
		if n == nil {
			continue // block pruned as unreachable
		}
		switch ev.kind {
		case evReduceRef:
			if _, ok := a.Reduce[ev.item.ID]; ok {
				continue // partial results accumulate locally; no fetch
			}
			fallthrough
		case evRef:
			one := bitset.Of(u, ev.item.ID)
			a.ReadInit.AddTake(n, u, one)
			// WRITE: a reference to a section requires any pending
			// write-back of overlapping data to have completed first —
			// the owner must hold current data before it can be re-read.
			// A STEAL in the AFTER problem is exactly "production may not
			// move past this point toward program start", which pins
			// WRITE_Recv above the reference (Figure 3's ordering).
			a.WriteInit.AddSteal(n, u, col.overlappingOrSame(ev.item))
		case evReduceDef:
			one := bitset.Of(u, ev.item.ID)
			if _, ok := a.Reduce[ev.item.ID]; ok {
				// the accumulation invalidates any fetched copy and needs a
				// reducing write-back, but gives nothing for the READ
				// problem (the local value is only a partial result)
				a.ReadInit.AddSteal(n, u, col.overlappingOrSame(ev.item))
				a.WriteInit.AddTake(n, u, one)
				a.WriteInit.AddSteal(n, u, col.overlapping(ev.item))
				continue
			}
			fallthrough
		case evDef:
			one := bitset.Of(u, ev.item.ID)
			// READ: the defined section comes for free; overlapping
			// sections are voided (their cached copies may be stale).
			a.ReadInit.AddGive(n, u, one)
			a.ReadInit.AddSteal(n, u, col.overlapping(ev.item))
			// WRITE: the definition must be written back; overlapping
			// earlier write-backs are voided.
			a.WriteInit.AddTake(n, u, one)
			a.WriteInit.AddSteal(n, u, col.overlapping(ev.item))
		case evKillArray:
			// a definition of a local array (or an unanalyzable
			// distributed definition) steals every section depending on it
			a.ReadInit.AddSteal(n, u, col.dependingOn(ev.array))
			a.WriteInit.AddSteal(n, u, col.dependingOn(ev.array))
		}
	}

	end("items", u, "events", len(col.events), "reductions", len(a.Reduce))
	return nil
}

// ApplyOpts applies the analysis options to a built Analysis, after
// StageUniverse and before the solves: SuppressHoist marks every
// non-root loop header NoHoist (the degradation ladder's rung 2).
func (a *Analysis) ApplyOpts(opt Opts) {
	if opt.SuppressHoist {
		for _, n := range a.Graph.Nodes {
			if n.IsHeader && n != a.Graph.Root {
				n.NoHoist = true
			}
		}
	}
}

// SolveRead solves the READ/BEFORE placement problem on the forward
// graph. A non-nil arena backs the solution's slabs (core.SolveIn);
// the solution then aliases it and dies with its next Reset.
func (a *Analysis) SolveRead(ctx context.Context, ocol obs.Collector, ar *bitset.Arena) error {
	end := obs.Begin(ocol, obs.SpanSolveRead)
	read, err := core.SolveIn(ctx, a.Graph, a.Universe.Size(), a.ReadInit, ar)
	if err != nil {
		end()
		return err
	}
	a.Read = read
	end("eq-evals", read.EquationEvals, "set-ops", read.Stats.SetOps)
	return nil
}

// SolveWrite reverses the graph and solves the WRITE/AFTER placement
// problem on it. Independent of SolveRead: interval.Reverse clones the
// nodes it reads, so the two solves may run concurrently.
func (a *Analysis) SolveWrite(ctx context.Context, ocol obs.Collector, ar *bitset.Arena) error {
	end := obs.Begin(ocol, obs.SpanReverseGraph)
	rev, err := interval.Reverse(a.Graph)
	if err != nil {
		end()
		return err
	}
	a.RevGraph = rev
	end()

	end = obs.Begin(ocol, obs.SpanSolveWrite)
	write, err := core.SolveIn(ctx, rev, a.Universe.Size(), a.WriteInit, ar)
	if err != nil {
		end()
		return err
	}
	a.Write = write
	end("eq-evals", write.EquationEvals, "set-ops", write.Stats.SetOps)
	return nil
}

// AtomicFallback builds the bottom rung of the degradation ladder: the
// always-balanced placement that communicates atomically at every
// consumption point (core.Atomic), for both the READ and the WRITE
// problem. It runs no dataflow solver and no fixed point — only the
// linear front half of the pipeline — so it cannot hit the one-pass
// invariant and has no pathological inputs beyond sheer program size.
// The returned analysis annotates (use AtomicComm options: Split would
// emit coincident halves) and verifies like any other: its Init sets
// are rewritten to the atomic runtime contract (consumed items are
// invalidated at their own node, free production is dropped), against
// which CheckPlacement reports no criterion errors.
func AtomicFallback(prog *ir.Program, ocol obs.Collector) (*Analysis, error) {
	a, err := build(context.Background(), prog, ocol)
	if err != nil {
		return nil, err
	}
	u := a.Universe.Size()
	end := obs.Begin(ocol, obs.SpanAtomicFallback)
	a.Read, a.ReadInit = core.Atomic(a.Graph, u, a.ReadInit)
	rev, err := interval.Reverse(a.Graph)
	if err != nil {
		end()
		return nil, err
	}
	a.RevGraph = rev
	a.Write, a.WriteInit = core.Atomic(rev, u, a.WriteInit)
	end("items", u)
	return a, nil
}

// Counters returns the solver work profiles of the READ and WRITE
// solves for a Report's solver section.
func (a *Analysis) Counters() []obs.SolverCounters {
	var out []obs.SolverCounters
	if a.Read != nil {
		out = append(out, a.Read.Counters("READ"))
	}
	if a.Write != nil {
		out = append(out, a.Write.Counters("WRITE"))
	}
	return out
}

type evKind int

const (
	evRef evKind = iota
	evDef
	evKillArray
	// evReduceDef is an accumulation x(s) = x(s) op e; evReduceRef is
	// the self-reference on its right-hand side.
	evReduceDef
	evReduceRef
)

type event struct {
	kind   evKind
	block  *cfg.Block
	item   *sections.Item
	array  string
	reduce string // operator for evReduceDef
}

// classifyReductions decides which items are pure reductions: at least
// one accumulation, a single operator, no plain definitions, and no
// reads outside their own accumulations.
func (c *collector) classifyReductions() map[int]string {
	type facts struct {
		ops       map[string]bool
		plainDefs int
		plainRefs int
	}
	byItem := map[int]*facts{}
	get := func(id int) *facts {
		if f, ok := byItem[id]; ok {
			return f
		}
		f := &facts{ops: map[string]bool{}}
		byItem[id] = f
		return f
	}
	for _, ev := range c.events {
		if ev.item == nil {
			continue
		}
		switch ev.kind {
		case evReduceDef:
			get(ev.item.ID).ops[ev.reduce] = true
		case evDef:
			get(ev.item.ID).plainDefs++
		case evRef:
			get(ev.item.ID).plainRefs++
		}
	}
	out := map[int]string{}
	for id, f := range byItem {
		if len(f.ops) == 1 && f.plainDefs == 0 && f.plainRefs == 0 {
			for op := range f.ops {
				out[id] = op
			}
		}
	}
	return out
}

// reduceOp reports the reduction operator when rhs is "lhsItem op e"
// (or "e op lhsItem") for a commutative op with no other reference to
// the defined array in e.
func (c *collector) reduceOp(lhs *ir.ArrayRef, lhsItem *sections.Item, rhs ir.Expr) (string, bool) {
	bin, ok := rhs.(*ir.BinExpr)
	if !ok {
		return "", false
	}
	var op string
	switch bin.Op {
	case "+":
		op = "SUM"
	case "*":
		op = "PROD"
	default:
		return "", false
	}
	match := func(self, other ir.Expr) bool {
		ref, ok := self.(*ir.ArrayRef)
		if !ok || ref.Name != lhs.Name {
			return false
		}
		it := c.item(ref.Name, ref.Subs)
		if it == nil || it.ID != lhsItem.ID {
			return false
		}
		// the other operand must not touch the reduced array
		for _, r := range ir.ArrayRefs(other) {
			if r.Name == lhs.Name {
				return false
			}
		}
		return true
	}
	if match(bin.X, bin.Y) || match(bin.Y, bin.X) {
		return op, true
	}
	return "", false
}

// collector walks the program in source order, maintaining the value
// numbering environment, and records reference/definition events with
// their CFG blocks. Two passes are hidden here: events are gathered
// first because STEAL sets ("all overlapping sections") need the full
// universe.
type collector struct {
	a      *Analysis
	env    *vn.Env
	ranges map[string]sections.LoopRange
	events []event
	err    error
}

func (c *collector) item(array string, subs []ir.Expr) *sections.Item {
	return c.a.Universe.ItemFor(array, subs, c.env, c.ranges)
}

// overlapping returns sections of the same array that may overlap it,
// excluding it itself (the definition gives its own section).
func (c *collector) overlapping(it *sections.Item) *bitset.Set {
	s := bitset.New(c.a.Universe.Size())
	for _, other := range c.a.Universe.Items {
		if other.ID != it.ID && c.a.Universe.MayOverlap(other, it) {
			s.Add(other.ID)
		}
	}
	return s
}

// overlappingOrSame is overlapping including the item itself.
func (c *collector) overlappingOrSame(it *sections.Item) *bitset.Set {
	s := c.overlapping(it)
	s.Add(it.ID)
	return s
}

// dependingOn returns sections whose subscript reads the named array, or
// every section of that array when it is distributed.
func (c *collector) dependingOn(array string) *bitset.Set {
	s := bitset.New(c.a.Universe.Size())
	for _, other := range c.a.Universe.Items {
		if other.UsesArray(array) || other.Array == array {
			s.Add(other.ID)
		}
	}
	return s
}

func (c *collector) record(kind evKind, b *cfg.Block, it *sections.Item, array string) {
	if b == nil {
		return
	}
	c.events = append(c.events, event{kind: kind, block: b, item: it, array: array})
}

func (c *collector) recordReduce(kind evKind, b *cfg.Block, it *sections.Item, op string) {
	if b == nil {
		return
	}
	c.events = append(c.events, event{kind: kind, block: b, item: it, reduce: op})
}

// refs records all distributed-array references inside e as consumers at
// block b; subscript reads of distributed arrays count too.
func (c *collector) refs(e ir.Expr, b *cfg.Block) {
	for _, ref := range ir.ArrayRefs(e) {
		if !c.a.Prog.Distributed(ref.Name) {
			continue
		}
		if it := c.item(ref.Name, ref.Subs); it != nil {
			c.record(evRef, b, it, ref.Name)
		} else {
			// unanalyzable subscript: be conservative, consume nothing
			// (no communication can be vectorized for it) but record the
			// read so future extensions can diagnose it
			_ = it
		}
	}
}

func (c *collector) walk(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			b := c.a.CFG.StmtBlock[s]
			// an accumulation into distributed data is a reduction
			// candidate: its self-reference is recorded separately so the
			// READ problem can drop it if the item classifies as a pure
			// reduction
			if lhs, ok := s.LHS.(*ir.ArrayRef); ok &&
				c.a.Prog.Distributed(lhs.Name) {
				if it := c.item(lhs.Name, lhs.Subs); it != nil {
					if op, isRed := c.reduceOp(lhs, it, s.RHS); isRed {
						for _, sub := range lhs.Subs {
							c.refs(sub, b)
						}
						// other operand's references still fetch normally
						if bin, ok := s.RHS.(*ir.BinExpr); ok {
							if selfRef, other := splitReduceOperands(bin, lhs.Name); selfRef != nil {
								c.refs(other, b)
								c.recordReduce(evReduceRef, b, it, op)
							}
						}
						c.recordReduce(evReduceDef, b, it, op)
						continue
					}
				}
			}
			c.refs(s.RHS, b)
			switch lhs := s.LHS.(type) {
			case *ir.ArrayRef:
				// subscript expressions of the LHS are reads
				for _, sub := range lhs.Subs {
					c.refs(sub, b)
				}
				if c.a.Prog.Distributed(lhs.Name) {
					if it := c.item(lhs.Name, lhs.Subs); it != nil {
						c.record(evDef, b, it, lhs.Name)
					} else {
						c.record(evKillArray, b, nil, lhs.Name)
					}
				} else {
					// definition of a local array: sections indirected
					// through it become stale
					c.record(evKillArray, b, nil, lhs.Name)
				}
			case *ir.Ident:
				// A scalar assignment renumbers future uses (x(m) after
				// "m = ..." is a fresh item); previously fetched sections
				// stay valid, so nothing is stolen.
				c.env.Kill(lhs.Name)
			}
		case *ir.Do:
			h := c.a.CFG.LoopHeader[s]
			c.refs(s.Lo, h)
			c.refs(s.Hi, h)
			if s.Step != nil {
				c.refs(s.Step, h)
			}
			pop := c.env.PushLoop(s.Var, s.Lo, s.Hi, s.Step)
			old, had := c.ranges[s.Var]
			c.ranges[s.Var] = sections.LoopRange{Lo: s.Lo, Hi: s.Hi, Step: s.Step}
			c.walk(s.Body)
			pop()
			if had {
				c.ranges[s.Var] = old
			} else {
				delete(c.ranges, s.Var)
			}
		case *ir.If:
			c.refs(s.Cond, c.a.CFG.IfBranch[s])
			c.walk(s.Then)
			c.walk(s.Else)
		case *ir.Goto, *ir.Continue, *ir.Comm:
			// no data effects
		default:
			if c.err == nil {
				c.err = fmt.Errorf("comm: cannot analyze %T", s)
			}
		}
	}
}

// splitReduceOperands returns the self-reference side and the other
// operand of a reduction RHS.
func splitReduceOperands(bin *ir.BinExpr, array string) (self *ir.ArrayRef, other ir.Expr) {
	if r, ok := bin.X.(*ir.ArrayRef); ok && r.Name == array {
		return r, bin.Y
	}
	if r, ok := bin.Y.(*ir.ArrayRef); ok && r.Name == array {
		return r, bin.X
	}
	return nil, nil
}

// ItemNames returns a printable name for each universe item, for dumps.
func (a *Analysis) ItemNames() func(int) string {
	return func(i int) string { return a.Universe.Items[i].String() }
}
