// Package cfg builds control flow graphs from mini-Fortran programs and
// normalizes them for interval analysis: one node per statement, explicit
// join nodes after IFs, label anchor nodes for GOTO targets, and critical
// edge splitting with synthetic nodes (paper §3.3, [KRS92]).
//
// The resulting graphs satisfy, by construction, the three properties the
// GIVE-N-TAKE interval flow graph requires: reducibility (the frontend
// admits only DO-loop cycles), a unique CYCLE edge per loop (every loop
// body funnels through a single join or latch), and no critical edges.
package cfg

import (
	"fmt"
	"strings"

	"givetake/internal/ir"
)

// Kind classifies CFG nodes.
type Kind int

const (
	// KEntry is the unique program entry node.
	KEntry Kind = iota
	// KExit is the unique program exit node.
	KExit
	// KStmt holds one straight-line statement (assignment, continue, comm).
	KStmt
	// KHeader is a DO-loop header; it evaluates the loop control and has
	// exactly two successors: the body (Succs[0]) and the loop exit
	// (Succs[1]). Fortran DO semantics make this a zero-trip construct.
	KHeader
	// KBranch is an IF condition; Succs[0] is the then side, Succs[1] the
	// else (or join) side.
	KBranch
	// KJoin is the empty merge point after an IF or the latch of a loop.
	KJoin
	// KAnchor marks a numeric label that is the target of a GOTO.
	KAnchor
	// KPad is a synthetic node inserted to break a critical edge; code
	// placed here materializes as a new basic block (e.g. a new else
	// branch or a landing pad for a jump out of a loop, paper §3.3).
	KPad
)

func (k Kind) String() string {
	switch k {
	case KEntry:
		return "entry"
	case KExit:
		return "exit"
	case KStmt:
		return "stmt"
	case KHeader:
		return "header"
	case KBranch:
		return "branch"
	case KJoin:
		return "join"
	case KAnchor:
		return "anchor"
	case KPad:
		return "pad"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Block is a CFG node. With one statement per node, "block" is used in
// the loose flow-graph sense of the paper rather than "maximal basic
// block".
type Block struct {
	ID   int
	Kind Kind

	// Stmt is the statement for KStmt nodes (Assign, Continue, Comm).
	Stmt ir.Stmt
	// Loop is the DO statement for KHeader nodes.
	Loop *ir.Do
	// Cond is the condition for KBranch nodes.
	Cond ir.Expr
	// LabelName is the label for KAnchor nodes.
	LabelName string

	Succs []*Block
	Preds []*Block
}

// Synthetic reports whether the node was invented by normalization (a
// pad); production placed here needs a new basic block at code
// generation time (paper §5.4).
func (b *Block) Synthetic() bool { return b.Kind == KPad }

// SourcePos returns the source position the block maps back to: the
// statement for KStmt, the DO statement for KHeader, the IF condition
// for KBranch. Structural blocks (entry/exit/join/anchor/pad) carry no
// position of their own and return the zero Pos.
func (b *Block) SourcePos() ir.Pos {
	switch b.Kind {
	case KStmt:
		if b.Stmt != nil {
			return b.Stmt.Pos()
		}
	case KHeader:
		if b.Loop != nil {
			return b.Loop.Pos()
		}
	case KBranch:
		if b.Cond != nil {
			return b.Cond.Pos()
		}
	}
	return ir.Pos{}
}

// Anchor renders the canonical source anchor for a block, shared by
// explain output and check diagnostics so both print identical
// references: "line:col" when the block maps back to source, otherwise
// the structural description (e.g. "b7:join").
func Anchor(b *Block) string {
	if b == nil {
		return "-"
	}
	if p := b.SourcePos(); p != (ir.Pos{}) {
		return p.String()
	}
	return b.String()
}

// String renders a compact description, e.g. "b3:stmt y(a(i)) = ...".
func (b *Block) String() string {
	desc := ""
	switch b.Kind {
	case KStmt:
		if b.Stmt != nil {
			desc = " " + strings.TrimRight(ir.StmtsString([]ir.Stmt{b.Stmt}), "\n")
		}
	case KHeader:
		if b.Loop != nil {
			desc = fmt.Sprintf(" do %s = %s, %s", b.Loop.Var, ir.ExprString(b.Loop.Lo), ir.ExprString(b.Loop.Hi))
		}
	case KBranch:
		desc = " if " + ir.ExprString(b.Cond)
	case KAnchor:
		desc = " " + b.LabelName
	}
	return fmt.Sprintf("b%d:%s%s", b.ID, b.Kind, desc)
}

// Graph is a control flow graph.
type Graph struct {
	Prog   *ir.Program
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	// AST associations recorded by Build, used by annotators that map
	// dataflow results back onto source positions.
	StmtBlock  map[ir.Stmt]*Block
	LoopHeader map[*ir.Do]*Block
	IfBranch   map[*ir.If]*Block
	IfJoin     map[*ir.If]*Block
}

// NewBlock appends a fresh block of the given kind.
func (g *Graph) NewBlock(k Kind) *Block {
	b := &Block{ID: len(g.Blocks), Kind: k}
	g.Blocks = append(g.Blocks, b)
	return b
}

// AddEdge appends the edge from → to, keeping successor order meaningful
// (first edge added is Succs[0]).
func (g *Graph) AddEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func removeFrom(list *[]*Block, b *Block) bool {
	for i, x := range *list {
		if x == b {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return true
		}
	}
	return false
}

// replaceSucc swaps to for repl in from.Succs, preserving position.
func replaceSucc(from, to, repl *Block) {
	for i, s := range from.Succs {
		if s == to {
			from.Succs[i] = repl
			return
		}
	}
	panic("cfg: replaceSucc: successor not found")
}

// replacePred swaps from for repl in to.Preds, preserving position.
func replacePred(to, from, repl *Block) {
	for i, p := range to.Preds {
		if p == from {
			to.Preds[i] = repl
			return
		}
	}
	panic("cfg: replacePred: predecessor not found")
}

// SplitEdge inserts a synthetic pad on the edge from → to and returns it.
func (g *Graph) SplitEdge(from, to *Block) *Block {
	pad := g.NewBlock(KPad)
	replaceSucc(from, to, pad)
	replacePred(to, from, pad)
	pad.Preds = []*Block{from}
	pad.Succs = []*Block{to}
	return pad
}

// SplitCriticalEdges breaks every edge whose source has multiple
// successors and whose sink has multiple predecessors by inserting a KPad
// node, and returns the number of pads inserted. This is required by the
// interval flow graph (paper §3.3): a critical edge marks a location
// where production cannot be placed without affecting unrelated paths.
func (g *Graph) SplitCriticalEdges() int {
	n := 0
	// Iterate over a snapshot: pads themselves are never critical sources.
	blocks := append([]*Block(nil), g.Blocks...)
	for _, b := range blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for i := 0; i < len(b.Succs); i++ {
			s := b.Succs[i]
			if len(s.Preds) >= 2 {
				g.SplitEdge(b, s)
				n++
			}
		}
	}
	return n
}

// Compact removes blocks unreachable from Entry and renumbers IDs. It
// relies on the graph invariant Blocks[i].ID == i (which NewBlock keeps
// and Validate enforces) to mark blocks in a slice. Pruned blocks keep
// their stale IDs: a stale ID may equal a live block's, so a pruned
// block must never be looked up by ID alone.
func (g *Graph) Compact() {
	reach := make([]bool, len(g.Blocks))
	var stack []*Block
	push := func(b *Block) {
		if b != nil && !reach[b.ID] {
			reach[b.ID] = true
			stack = append(stack, b)
		}
	}
	push(g.Entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			push(s)
		}
	}
	// drop edges from unreachable preds while every ID still indexes
	// reach, then renumber
	for i, b := range g.Blocks {
		if reach[i] {
			preds := b.Preds[:0]
			for _, p := range b.Preds {
				if reach[p.ID] {
					preds = append(preds, p)
				}
			}
			b.Preds = preds
		}
	}
	kept := g.Blocks[:0]
	for i, b := range g.Blocks {
		if reach[i] {
			b.ID = len(kept)
			kept = append(kept, b)
		}
	}
	g.Blocks = kept
}

// Validate checks structural invariants (dense IDs, edge symmetry,
// single entry/exit, no critical edges) and returns a descriptive error
// if any fails.
func (g *Graph) Validate() error {
	if g.Entry == nil || g.Exit == nil {
		return fmt.Errorf("cfg: missing entry or exit")
	}
	if len(g.Entry.Preds) != 0 {
		return fmt.Errorf("cfg: entry %v has predecessors", g.Entry)
	}
	if len(g.Exit.Succs) != 0 {
		return fmt.Errorf("cfg: exit %v has successors", g.Exit)
	}
	for i, b := range g.Blocks {
		if b.ID != i {
			return fmt.Errorf("cfg: block %v at index %d: IDs must equal indices", b, i)
		}
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !g.has(s) {
				return fmt.Errorf("cfg: %v has successor outside graph", b)
			}
			if !contains(s.Preds, b) {
				return fmt.Errorf("cfg: edge %v -> %v missing pred link", b, s)
			}
			if len(b.Succs) >= 2 && len(s.Preds) >= 2 {
				return fmt.Errorf("cfg: critical edge %v -> %v", b, s)
			}
		}
		for _, p := range b.Preds {
			if !g.has(p) {
				return fmt.Errorf("cfg: %v has predecessor outside graph", b)
			}
			if !contains(p.Succs, b) {
				return fmt.Errorf("cfg: edge %v -> %v missing succ link", p, b)
			}
		}
	}
	return nil
}

// has reports whether b is one of g's blocks: its ID indexes g.Blocks
// and the block there is b itself, not a pruned block with a stale ID.
func (g *Graph) has(b *Block) bool {
	return b != nil && b.ID >= 0 && b.ID < len(g.Blocks) && g.Blocks[b.ID] == b
}

func contains(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

// String renders the graph one node per line, for tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%v ->", b)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.ID)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
