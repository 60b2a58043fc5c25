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
func (a *Analysis) Annotate(opt Options) *ir.Program {
	return place.Annotate(a.Prog, a.CFG, func(b *cfg.Block, entry bool) []ir.Stmt {
		return a.commsAt(b, entry, opt)
	})
}

// AnnotatedSource is Annotate rendered as program text.
func (a *Analysis) AnnotatedSource(opt Options) string {
	return ir.ProgramString(a.Annotate(opt))
}

// commsAt returns the communication statements generated at a block's
// entry (entry=true) or exit, in the paper's order: WRITE_Send,
// WRITE_Recv, READ_Send, READ_Recv. Items placed together merge into one
// vectorized statement per reduction operator.
func (a *Analysis) commsAt(b *cfg.Block, entry bool, opt Options) []ir.Stmt {
	if b == nil {
		return nil
	}
	n := a.Graph.NodeFor(b)
	if n == nil {
		return nil
	}
	id := n.ID
	var out []ir.Stmt
	add := func(op, half string, set *bitset.Set) {
		if set.IsEmpty() {
			return
		}
		type group struct {
			c     *ir.Comm
			items []*sections.Item
		}
		groups := map[string]*group{}
		var order []string
		set.ForEach(func(i int) {
			red := ""
			if op == "WRITE" {
				red = a.Reduce[i]
			}
			gr, ok := groups[red]
			if !ok {
				gr = &group{c: &ir.Comm{Op: op, Half: half, Reduce: red}}
				groups[red] = gr
				order = append(order, red)
			}
			gr.items = append(gr.items, a.Universe.Items[i])
		})
		for _, red := range order {
			gr := groups[red]
			if opt.Coalesce {
				gr.c.Args = a.Universe.CoalesceExprs(gr.items)
			} else {
				for _, it := range gr.items {
					gr.c.Args = append(gr.c.Args, it.SectionExpr())
				}
			}
			out = append(out, gr.c)
		}
	}
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
			add("WRITE", "Send", send)
			add("WRITE", "Recv", recv)
		} else {
			add("WRITE", "", send)
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
			add("READ", "Send", send)
			add("READ", "Recv", recv)
		} else {
			add("READ", "", recv)
		}
	}
	return out
}
