// Package place maps GIVE-N-TAKE placement results back onto source
// programs: it rebuilds a program's statement list, invoking a callback
// for the entry and exit of every CFG block — including the synthetic
// positions that need materialization (paper §5.4): pads on branch arms
// become code at the top of the arm (creating an else branch if needed,
// as in Figure 3), pads on loop edges become code before the first or
// after the last iteration, and label anchors put their code in front of
// the labeled statement, transferring the label (Figure 14's
// "77 READ_Recv{...}").
package place

import (
	"fmt"

	"givetake/internal/cfg"
	"givetake/internal/ir"
)

// EmitFunc appends the statements to insert at a block's entry
// (entry=true) or exit to dst and returns the extended slice. It is
// called exactly once per block side. The statements must be fresh: the
// annotator may move a label onto the first of them.
type EmitFunc func(dst []ir.Stmt, b *cfg.Block, entry bool) []ir.Stmt

// Annotate returns a copy of prog with the emitter's statements woven in
// at the source positions corresponding to each CFG block, in one pass
// over prog. The copy shares prog's unlabeled assignments, continues
// and gotos, so it is read-only; a statement of prog never receives a
// label, so prog is never written.
func Annotate(prog *ir.Program, g *cfg.Graph, emit EmitFunc) *ir.Program {
	out := ir.NewProgram(prog.Name)
	for _, d := range prog.Decls {
		out.Declare(d)
	}
	// the stack ends as the top-level list: room for prog's statements
	// and about as many communication statements again
	an := &annotator{g: g, emit: emit, anchors: anchorIndex(g),
		out: make([]ir.Stmt, 0, 2*len(prog.Body)+8)}
	an.both(g.Entry)
	an.rebuild(prog.Body)
	an.both(g.Exit)
	if len(an.out) > 0 {
		out.Body = an.out
	}
	return out
}

// annotator rebuilds a program on one statement stack: every list under
// construction appends to the top of out, and a finished nested list is
// copied off it (seal), so each output list is allocated once at its
// final length.
type annotator struct {
	g       *cfg.Graph
	emit    EmitFunc
	anchors map[string]*cfg.Block
	out     []ir.Stmt
}

// anchorIndex maps each label to its anchor block, the first in
// g.Blocks order.
func anchorIndex(g *cfg.Graph) map[string]*cfg.Block {
	var m map[string]*cfg.Block
	for _, b := range g.Blocks {
		if b.Kind != cfg.KAnchor {
			continue
		}
		if m == nil {
			m = map[string]*cfg.Block{}
		}
		if _, ok := m[b.LabelName]; !ok {
			m[b.LabelName] = b
		}
	}
	return m
}

// comms appends the communication at one side of b.
func (an *annotator) comms(b *cfg.Block, entry bool) {
	if b != nil {
		an.out = an.emit(an.out, b, entry)
	}
}

// both appends the communication at b's entry, then at its exit.
func (an *annotator) both(b *cfg.Block) {
	an.comms(b, true)
	an.comms(b, false)
}

// seal copies the list appended since mark off the stack.
func (an *annotator) seal(mark int) []ir.Stmt {
	if len(an.out) == mark {
		return nil
	}
	list := make([]ir.Stmt, len(an.out)-mark)
	copy(list, an.out[mark:])
	clear(an.out[mark:])
	an.out = an.out[:mark]
	return list
}

// applyLabel moves a statement label onto the first statement appended
// since mark, as in Figure 14's "77 READ_Recv{...}".
func (an *annotator) applyLabel(mark int, label string) {
	if label != "" && len(an.out) > mark {
		an.out[mark].SetLabel(label)
	}
}

// padOnEdge returns the pad block sitting on the edge from → to, if any.
func padOnEdge(from *cfg.Block, idx int) *cfg.Block {
	if idx >= len(from.Succs) {
		return nil
	}
	if s := from.Succs[idx]; s != nil && s.Kind == cfg.KPad {
		return s
	}
	return nil
}

func (an *annotator) rebuild(stmts []ir.Stmt) {
	for _, s := range stmts {
		label := s.Label()
		mark := len(an.out)
		// a labeled goto target: the anchor block's communication comes
		// first and inherits the label
		if label != "" {
			if anchor := an.anchors[label]; anchor != nil {
				an.both(anchor)
				if len(an.out) > mark {
					an.applyLabel(mark, label)
					label = "" // consumed by the first comm statement
					mark = len(an.out)
				}
			}
		}
		switch s := s.(type) {
		case *ir.Assign, *ir.Continue:
			b := an.g.StmtBlock[s]
			an.comms(b, true)
			an.out = append(an.out, unlabeled(s))
			an.comms(b, false)
		case *ir.Comm, *ir.Goto:
			an.out = append(an.out, unlabeled(s))
		case *ir.Do:
			an.rebuildDo(s)
		case *ir.If:
			an.rebuildIf(s)
		default:
			panic(fmt.Sprintf("place: annotate: unexpected %T", s))
		}
		an.applyLabel(mark, label)
	}
}

func (an *annotator) rebuildDo(s *ir.Do) {
	h := an.g.LoopHeader[s]
	an.comms(h, true)
	d := &ir.Do{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Step: s.Step}
	body := len(an.out)
	if h != nil {
		// An empty source body hides a synthesized continue node the AST
		// walk never reaches; its communication forms the body. A pad on
		// the entry edge (inserted when the first body statement is
		// itself a loop header) executes at the top of every iteration.
		if len(s.Body) == 0 && len(h.Succs) > 0 && h.Succs[0].Kind == cfg.KStmt {
			an.both(h.Succs[0])
		}
		if pad := padOnEdge(h, 0); pad != nil {
			an.both(pad)
		}
	}
	an.rebuild(s.Body)
	d.Body = an.seal(body)
	an.out = append(an.out, d)
	an.comms(h, false)
	// a pad on the loop-exit edge also lands right after enddo
	if h != nil {
		if pad := padOnEdge(h, len(h.Succs)-1); pad != nil {
			an.both(pad)
		}
	}
}

func (an *annotator) rebuildIf(s *ir.If) {
	br := an.g.IfBranch[s]
	// Production at the branch's exit (e.g. a WRITE_Recv the reversed
	// problem anchors to the branch) executes once, after the condition
	// evaluates and before either arm; emitting it just before the IF is
	// semantically identical since condition evaluation has no effects.
	an.both(br)
	// Pads hanging off the branch belong to the start of the matching
	// arm: Succs[0] is the then side, Succs[1] the else side. This
	// covers the synthetic else branch of Figure 3 (pad on branch→join),
	// the landing block of Figure 14 (pad on branch→anchor, production
	// inside "if ... then" before the goto), and the latch pad of a
	// loop-ending logical IF.
	arm := func(side int, stmts []ir.Stmt) []ir.Stmt {
		mark := len(an.out)
		if br != nil {
			if pad := padOnEdge(br, side); pad != nil {
				an.both(pad)
			}
		}
		an.rebuild(stmts)
		return an.seal(mark)
	}
	then := arm(0, s.Then)
	els := arm(1, s.Else)
	an.out = append(an.out, ir.NewIf(s.Pos(), s.Cond, then, els))
	an.both(an.g.IfJoin[s])
}

// unlabeled returns s itself when it carries no label, and otherwise a
// shallow copy without one, so the original program is never mutated by
// label transfer.
func unlabeled(s ir.Stmt) ir.Stmt {
	if s.Label() == "" {
		return s
	}
	var c ir.Stmt
	switch s := s.(type) {
	case *ir.Assign:
		n := *s
		c = &n
	case *ir.Continue:
		n := *s
		c = &n
	case *ir.Comm:
		n := *s
		c = &n
	case *ir.Goto:
		n := *s
		c = &n
	default:
		panic(fmt.Sprintf("place: unlabeled: unexpected %T", s))
	}
	c.SetLabel("")
	return c
}
