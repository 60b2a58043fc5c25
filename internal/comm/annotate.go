package comm

import (
	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/ir"
	"givetake/internal/place"
	"givetake/internal/sections"
)

// Options selects what Annotate emits.
type Options struct {
	// Reads/Writes include the READ (BEFORE) and WRITE (AFTER) problems.
	Reads, Writes bool
	// Split emits separate Send/Recv halves (EAGER and LAZY solutions),
	// enabling latency hiding; unsplit emits one atomic operation per
	// production at the LAZY placement (e.g. for a library call).
	Split bool
	// Coalesce merges contiguous constant sections placed at one point
	// into single transfers (x(1:5) + x(6:10) → x(1:10)).
	Coalesce bool
}

// DefaultOptions is split reads and writes, as in the paper's figures.
var DefaultOptions = Options{Reads: true, Writes: true, Split: true}

// Annotate returns a copy of the program with communication statements
// inserted at the placements GIVE-N-TAKE computed. Production at
// synthetic pads materializes as new source positions (paper §5.4): an
// added else branch, a landing block inside a logical IF before its
// GOTO, or the position just after an ENDDO.
//
// The returned program is read-only. Each call derives an item's
// section expression at most once, so several Comm statements may share
// one Expr, and statements the annotation leaves unchanged are shared
// with a.Prog. Two calls share nothing they write, so concurrent calls
// are safe.
func (a *Analysis) Annotate(opt Options) *ir.Program {
	r := &render{a: a, opt: opt, sections: a.Universe.SectionTable()}
	return place.Annotate(a.Prog, a.CFG, r.commsAt)
}

// AnnotatedSource is Annotate rendered as program text.
func (a *Analysis) AnnotatedSource(opt Options) string {
	return ir.ProgramString(a.Annotate(opt))
}

// render is one Annotate call: its options, its section table, and the
// grouping scratch every production set reuses.
type render struct {
	a        *Analysis
	opt      Options
	sections *sections.SectionTable
	groups   []group
}

// group is one statement of a production set: the items it moves under
// one reduction operator. items is kept only for coalescing.
type group struct {
	c     *ir.Comm
	items []*sections.Item
}

// commsAt appends the communication statements generated at a block's
// entry (entry=true) or exit to dst, in the paper's order: WRITE_Send,
// WRITE_Recv, READ_Send, READ_Recv. Items placed together merge into one
// vectorized statement per reduction operator.
func (r *render) commsAt(dst []ir.Stmt, b *cfg.Block, entry bool) []ir.Stmt {
	a, opt := r.a, r.opt
	n := a.Graph.NodeFor(b)
	if n == nil {
		return dst
	}
	id := n.ID
	if opt.Writes && a.Write != nil {
		// The WRITE problem was solved on the reversed graph: its RES_in
		// is production at the node's exit in original orientation, its
		// RES_out at the entry. WRITE_Send is the LAZY solution of the
		// AFTER problem, WRITE_Recv the EAGER one (§3.1).
		var send, recv *bitset.Set
		if entry {
			send, recv = a.Write.Lazy.ResOut.At(id), a.Write.Eager.ResOut.At(id)
		} else {
			send, recv = a.Write.Lazy.ResIn.At(id), a.Write.Eager.ResIn.At(id)
		}
		if opt.Split {
			dst = r.add(dst, "WRITE", "Send", send)
			dst = r.add(dst, "WRITE", "Recv", recv)
		} else {
			dst = r.add(dst, "WRITE", "", send)
		}
	}
	if opt.Reads {
		var send, recv *bitset.Set
		if entry {
			send, recv = a.Read.Eager.ResIn.At(id), a.Read.Lazy.ResIn.At(id)
		} else {
			send, recv = a.Read.Eager.ResOut.At(id), a.Read.Lazy.ResOut.At(id)
		}
		if opt.Split {
			dst = r.add(dst, "READ", "Send", send)
			dst = r.add(dst, "READ", "Recv", recv)
		} else {
			dst = r.add(dst, "READ", "", recv)
		}
	}
	return dst
}

// add appends set's statements to dst: one per reduction operator, in
// the order the operators first occur in the set.
func (r *render) add(dst []ir.Stmt, op, half string, set *bitset.Set) []ir.Stmt {
	if set.IsEmpty() {
		return dst
	}
	reduce := r.a.Reduce
	if op != "WRITE" {
		reduce = nil
	}
	size, groups := set.Count(), r.groups[:0]
	set.ForEach(func(i int) {
		red := reduce[i]
		k := 0
		for k < len(groups) && groups[k].c.Reduce != red {
			k++
		}
		if k == len(groups) {
			c := &ir.Comm{Op: op, Half: half, Reduce: red}
			if k == 0 && !r.opt.Coalesce {
				// the first operator usually takes the whole set
				c.Args = make([]ir.Expr, 0, size)
			}
			groups = append(groups, group{c: c})
		}
		if r.opt.Coalesce {
			groups[k].items = append(groups[k].items, r.a.Universe.Items[i])
		} else {
			groups[k].c.Args = append(groups[k].c.Args, r.sections.Expr(i))
		}
	})
	for _, gr := range groups {
		if r.opt.Coalesce {
			gr.c.Args = r.a.Universe.CoalesceExprs(gr.items)
		}
		dst = append(dst, gr.c)
	}
	clear(groups)
	r.groups = groups
	return dst
}
