package check

import (
	"context"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/interval"
)

// The static verifier proves the path predicates of core.Verify by a
// fixed point instead of path enumeration. Its dataflow contexts are
// pairs (node, frame set): the frame set F holds the headers of loops
// the path is currently iterating, mirroring the loop-frame stack of
// the bounded checker. Headers therefore split into three context
// flavors, exactly the three arms of core.Verify's step():
//
//   - construct entry from outside (fromOutside): RES_in and the node's
//     TAKE/GIVE/STEAL fire, a frame is pushed for the iterate branch,
//     and the zero-trip branch taints the path (C2 is vacuous beyond a
//     skipped loop) while adding GIVE(h)−STEAL(h) as the loop's
//     vacuously-satisfied summary;
//   - construct entry via the cycle edge with no active frame (a jump
//     into the loop, §5.3, reversed graphs): same branching but no
//     events and no zero-trip taint;
//   - iteration (cycle edge, frame active): no events; the framework's
//     O1 availability knowledge resets to the loop-entry snapshot.
//
// Per item the lattice is the path-state set {unproduced, open-region,
// produced}; the analysis keeps its meet-over-paths summary as parallel
// must (∩) and may (∪) bit vectors, which collapse to ⊥-conflict
// exactly where the two disagree. Each criterion reads the side that
// makes a firing diagnostic a theorem about some real path:
//
//	openMust/openMay  C1   region open on all / some incoming path
//	availMust         C3   item available on every path (gen/kill per
//	                       item ⇒ the fixed point equals meet-over-paths,
//	                       so TAKE∖availMust is exact, no false alarms)
//	availO1Must       O1   availability as the framework can know it;
//	                       cycle edges intersect with the loop-entry
//	                       snapshot (meet over the entering contexts),
//	                       an under-approximation, so GNT007 only fires
//	                       when every path re-produces
//	fromMay           O1   which nodes may have produced each item last
//	                       (production at the node that made the item
//	                       available is exempt, like core.Verify's
//	                       availFrom)
//	pendingU          C2   produced-but-unconsumed on some path that has
//	                       not crossed a zero-trip loop; the untainted
//	                       bit records whether such a path reaches here
//
// The fixed point only computes states; diagnostics are emitted by a
// second, deterministic pass over the stabilized contexts, and each
// error is backed by a path witness from witness.go.
//
// State layout. A state is one word slab. The must vectors come first
// and meet by intersection, the may vectors follow and meet by union,
// so a meet is two word loops that also detect change. fromMay[m][i]
// ranges over item i's mode-m producer domain only: local bit 0 is
// "external" (a GIVE or a skipped-loop summary), bit k the k-th node,
// in ID order, whose mode-m RES_in or RES_out contains i — no other
// node can be a last producer. Frame sets are interned to dense IDs
// with memoized transitions, so context keys are small structs. Edge
// values are borrowed: a successor's IN state is copied only when the
// context is created, and working states are recycled.

// Vector indices of the fixed part of a state slab, in units of the
// universe's word count. Must vectors precede may vectors.
const (
	vOpenMust    = iota
	vAvailMust                    // + mode
	vAvailO1Must = vAvailMust + 2 // + mode
	vOpenMay     = vAvailO1Must + 2
	vPendingU    = vOpenMay + 1 // + mode
	vFixed       = vPendingU + 2
)

// words is a packed bit vector viewed over a range of a state slab.
type words []uint64

func (w words) has(i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }
func (w words) add(i int)      { w[i>>6] |= 1 << (uint(i) & 63) }
func (w words) remove(i int)   { w[i>>6] &^= 1 << (uint(i) & 63) }

func (w words) isEmpty() bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

func (w words) clear() {
	for i := range w {
		w[i] = 0
	}
}

func (w words) or(s []uint64) {
	for i, x := range s {
		w[i] |= x
	}
}

func (w words) andNot(s []uint64) {
	for i, x := range s {
		w[i] &^= x
	}
}

// and intersects w with s and reports whether w changed.
func (w words) and(s []uint64) bool {
	var diff uint64
	for i, x := range s {
		y := w[i] & x
		diff |= y ^ w[i]
		w[i] = y
	}
	return diff != 0
}

// forEach calls f for every member of w, in increasing order.
func (w words) forEach(f func(i int)) {
	for wi, x := range w {
		for x != 0 {
			f(wi<<6 + bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
}

// frames is the set of active loop-frame headers, as sorted node IDs.
type frames []int

func (f frames) key() string {
	if len(f) == 0 {
		return ""
	}
	parts := make([]string, len(f))
	for i, id := range f {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ".")
}

func (f frames) has(id int) bool {
	for _, x := range f {
		if x == id {
			return true
		}
	}
	return false
}

func (f frames) with(id int) frames {
	if f.has(id) {
		return f
	}
	out := make(frames, 0, len(f)+1)
	for _, x := range f {
		if x < id {
			out = append(out, x)
		}
	}
	out = append(out, id)
	for _, x := range f {
		if x > id {
			out = append(out, x)
		}
	}
	return out
}

func (f frames) without(id int) frames {
	out := make(frames, 0, len(f))
	for _, x := range f {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// frameOp is a frame-set transition: pushing a loop frame at construct
// entry, popping it at loop exit, or the pops of a jump to a node.
type frameOp uint8

const (
	opWith frameOp = iota
	opWithout
	opJump
)

type frameStep struct {
	f    int32
	op   frameOp
	node int
}

// frameTable interns frame sets to dense IDs (0 is the empty set) and
// memoizes their transitions, so the fixed point never builds a set or
// a key once a transition has been seen. keys keeps each set's string
// form for the reporting pass's sort order.
type frameTable struct {
	g     *interval.Graph
	sets  []frames
	keys  []string
	ids   map[string]int32
	steps map[frameStep]int32
}

func newFrameTable(g *interval.Graph) *frameTable {
	t := &frameTable{g: g, ids: map[string]int32{}, steps: map[frameStep]int32{}}
	t.intern(nil)
	return t
}

func (t *frameTable) intern(f frames) int32 {
	k := f.key()
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := int32(len(t.sets))
	t.sets = append(t.sets, f)
	t.keys = append(t.keys, k)
	t.ids[k] = id
	return id
}

func (t *frameTable) has(f int32, id int) bool { return t.sets[f].has(id) }

// step returns the frame set f becomes under op at node n.
func (t *frameTable) step(f int32, op frameOp, n *interval.Node) int32 {
	k := frameStep{f, op, n.ID}
	if id, ok := t.steps[k]; ok {
		return id
	}
	var next frames
	switch op {
	case opWith:
		next = t.sets[f].with(n.ID)
	case opWithout:
		next = t.sets[f].without(n.ID)
	case opJump:
		next = t.popJump(t.sets[f], n)
	}
	id := t.intern(next)
	t.steps[k] = id
	return id
}

// popJump drops the frames of every loop the jump target lies outside
// of (the stack-pop of core.Verify, expressed on the frame set).
func (t *frameTable) popJump(f frames, target *interval.Node) frames {
	out := make(frames, 0, len(f))
	for _, id := range f {
		h := t.g.Nodes[id]
		if target == h || interval.InInterval(target, h) {
			out = append(out, id)
		}
	}
	return out
}

type ctxKey struct {
	node    int
	f       int32
	outside bool
}

type dfContext struct {
	node    *interval.Node
	f       int32
	outside bool
	in      state
	queued  bool
	next    *dfContext // the node's next context
}

// state is the dataflow value at a context entry, laid out in w as
// described under "State layout".
type state struct {
	w         []uint64
	untainted bool
}

type snapKey struct {
	node int
	f    int32
}

type dedupKey struct {
	code             string
	node, item, mode int
}

type verifier struct {
	ctx   context.Context
	p     *Problem
	g     *interval.Graph
	entry *interval.Node
	u     int // universe size
	uw    int // words per universe-sized vector
	fr    *frameTable

	// Producer domains, per mode: dom[m][domOff[m][i]:domOff[m][i+1]]
	// are the node IDs that may produce item i, and fromMay[m][i] is
	// the slab range [fromOff[m][i], fromOff[m][i+1]).
	dom     [2][]int
	domOff  [2][]int
	fromOff [2][]int
	size    int // words per state slab
	mustEnd int // end of the must vectors in a slab
	meetOps int64

	heads  []*dfContext // per node ID, its first context
	order  []*dfContext // contexts in creation order
	wl     []*dfContext
	snaps  map[snapKey]words // availO1Must[0] then [1] at construct entry
	ctxBuf []dfContext       // backing store of contexts
	arena  []uint64          // backing store of IN states and snapshots
	free   []*state          // recycled working states
	tmp    words             // one universe-sized temporary vector

	diags []Diagnostic
	dedup map[dedupKey]bool
	stats Stats
	err   error // cancellation seen during the reporting pass

	// reporting switches transfer from propagation to diagnosis; cur is
	// the context being replayed, for witness anchoring.
	reporting bool
	cur       *dfContext
}

func newVerifier(ctx context.Context, p *Problem) *verifier {
	nn := len(p.Graph.Nodes)
	est := nn + nn/4 // contexts: about 1.2 per node on generated programs
	uw := (p.Universe + 63) / 64
	v := &verifier{
		ctx:     ctx,
		p:       p,
		g:       p.Graph,
		u:       p.Universe,
		uw:      uw,
		fr:      newFrameTable(p.Graph),
		mustEnd: vOpenMay * uw,
		// Stats.SetOps counts one intersection or union and one
		// comparison per lattice vector; fromMay is one vector per item.
		meetOps: 2 * int64(2+2*(3+p.Universe)),
		heads:   make([]*dfContext, nn),
		order:   make([]*dfContext, 0, est),
		snaps:   map[snapKey]words{},
		ctxBuf:  make([]dfContext, 0, est),
		tmp:     make(words, uw),
		dedup:   map[dedupKey]bool{},
	}
	for _, n := range v.g.Preorder {
		if n.CountPreds(interval.CEFJ) == 0 {
			v.entry = n // mirrors core.Verify: no CEFJ predecessors
			break
		}
	}
	off := vFixed * uw
	for m, sched := range [2]struct{ in, out bitset.Slab }{
		{p.Sol.Eager.ResIn, p.Sol.Eager.ResOut},
		{p.Sol.Lazy.ResIn, p.Sol.Lazy.ResOut},
	} {
		v.domOff[m] = make([]int, v.u+1)
		v.eachProducer(sched.in, sched.out, func(_, i int) { v.domOff[m][i+1]++ })
		for i := 0; i < v.u; i++ {
			v.domOff[m][i+1] += v.domOff[m][i]
		}
		v.dom[m] = make([]int, v.domOff[m][v.u])
		next := append([]int(nil), v.domOff[m][:v.u]...)
		v.eachProducer(sched.in, sched.out, func(id, i int) {
			v.dom[m][next[i]] = id
			next[i]++
		})
		v.fromOff[m] = make([]int, v.u+1)
		for i := 0; i < v.u; i++ {
			v.fromOff[m][i] = off
			off += (v.domOff[m][i+1] - v.domOff[m][i] + 1 + 63) / 64
		}
		v.fromOff[m][v.u] = off
	}
	v.size = off
	v.arena = make([]uint64, 0, est*v.size)
	return v
}

// eachProducer calls f(id, i) for every node ID in increasing order and
// every item i of RES_in(id) ∪ RES_out(id), in increasing order.
func (v *verifier) eachProducer(in, out bitset.Slab, f func(id, i int)) {
	for id := range v.g.Nodes {
		v.tmp.clear()
		v.tmp.or(in.Row(id))
		v.tmp.or(out.Row(id))
		v.tmp.forEach(func(i int) { f(id, i) })
	}
}

// vec is fixed vector k (one of the v* indices) of st.
func (v *verifier) vec(st *state, k int) words {
	return words(st.w[k*v.uw : (k+1)*v.uw])
}

// fromMay is the producer-domain vector of item i under mode m.
func (v *verifier) fromMay(st *state, m, i int) words {
	return words(st.w[v.fromOff[m][i]:v.fromOff[m][i+1]])
}

// producer is node id's local bit in item i's mode-m producer domain;
// id must be in the domain.
func (v *verifier) producer(m, i, id int) int {
	return 1 + sort.SearchInts(v.dom[m][v.domOff[m][i]:v.domOff[m][i+1]], id)
}

// borrow returns a working copy of st, recycled when possible.
func (v *verifier) borrow(st *state) *state {
	var c *state
	if n := len(v.free); n > 0 {
		c = v.free[n-1]
		v.free = v.free[:n-1]
	} else {
		c = &state{w: make([]uint64, v.size)}
	}
	copy(c.w, st.w)
	c.untainted = st.untainted
	return c
}

func (v *verifier) release(st *state) { v.free = append(v.free, st) }

// alloc carves n zeroed words that live as long as the verification
// (context IN states and loop-entry snapshots) from the arena, adding
// a chunk of the first one's size when it runs out.
func (v *verifier) alloc(n int) []uint64 {
	if len(v.arena)+n > cap(v.arena) {
		v.arena = make([]uint64, 0, max(n, cap(v.arena)))
	}
	k := len(v.arena)
	v.arena = v.arena[:k+n]
	return v.arena[k : k+n : k+n]
}

func (v *verifier) newContext() *dfContext {
	if len(v.ctxBuf) == cap(v.ctxBuf) {
		v.ctxBuf = make([]dfContext, 0, max(16, cap(v.ctxBuf)))
	}
	v.ctxBuf = v.ctxBuf[:len(v.ctxBuf)+1]
	return &v.ctxBuf[len(v.ctxBuf)-1]
}

// meet folds o into st (st is a context IN, o an incoming edge value)
// and reports whether st changed. Must vectors intersect, may vectors
// unite.
func (v *verifier) meet(st, o *state) bool {
	v.stats.SetOps += v.meetOps
	changed := words(st.w[:v.mustEnd]).and(o.w[:v.mustEnd])
	var diff uint64
	may := st.w[v.mustEnd:]
	for i, x := range o.w[v.mustEnd:] {
		diff |= x &^ may[i]
		may[i] |= x
	}
	changed = changed || diff != 0
	if o.untainted && !st.untainted {
		st.untainted = true
		changed = true
	}
	return changed
}

func (v *verifier) enqueue(c *dfContext) {
	if !c.queued {
		c.queued = true
		v.wl = append(v.wl, c)
	}
}

// lookup returns the context of k, or nil.
func (v *verifier) lookup(k ctxKey) *dfContext {
	return v.heads[k.node].find(k.f, k.outside)
}

// find returns the context with frame set f and flavor outside among c
// and the contexts chained after it, or nil.
func (c *dfContext) find(f int32, outside bool) *dfContext {
	for ; c != nil; c = c.next {
		if c.f == f && c.outside == outside {
			return c
		}
	}
	return nil
}

// contribute merges an edge value into the target context, creating and
// scheduling it on first contact. st is only borrowed: it is copied when
// the context is created and left unchanged. A no-op during the
// reporting pass.
func (v *verifier) contribute(to *interval.Node, f int32, outside bool, st *state) {
	if v.reporting {
		return
	}
	c := v.lookup(ctxKey{to.ID, f, outside})
	if c == nil {
		c = v.newContext()
		*c = dfContext{node: to, f: f, outside: outside, in: state{w: v.alloc(v.size), untainted: st.untainted}, next: v.heads[to.ID]}
		copy(c.in.w, st.w)
		v.heads[to.ID] = c
		v.order = append(v.order, c)
		v.enqueue(c)
		return
	}
	if v.meet(&c.in, st) {
		v.enqueue(c)
	}
}

// jump contributes st across a JUMP edge, popping the frames of the
// loops the target lies outside of. It also forgets O1 availability
// knowledge: jumps leave (or, reversed, enter) an interval sideways,
// and the one-pass interval evaluation re-establishes state at their
// landing pads conservatively (§5.3, NoHoist); production after a jump
// therefore never counts as re-production. This only under-approximates
// the framework's knowledge further, so GNT007 stays a theorem.
func (v *verifier) jump(to *interval.Node, f int32, st *state) {
	if v.reporting {
		return
	}
	sc := v.borrow(st)
	v.forgetO1(sc)
	v.contribute(to, v.fr.step(f, opJump, to), true, sc)
	v.release(sc)
}

// recordSnap meets the post-event availO1 state of a construct entry
// into the loop-entry snapshot of body frame set f, re-scheduling the
// iteration context when the snapshot shrinks.
func (v *verifier) recordSnap(node int, f int32, st *state) {
	if v.reporting {
		return
	}
	k := snapKey{node, f}
	o1 := st.w[vAvailO1Must*v.uw : (vAvailO1Must+2)*v.uw]
	s, ok := v.snaps[k]
	if !ok {
		s = v.alloc(len(o1))
		copy(s, o1)
		v.snaps[k] = s
		return
	}
	v.stats.SetOps += 4
	if s.and(o1) {
		if c := v.lookup(ctxKey{node, f, false}); c != nil {
			v.enqueue(c)
		}
	}
}

// pollEvery is how many worklist iterations, reported contexts or
// witness queue entries pass between cancellation polls.
const pollEvery = 64

// canceled polls done without blocking; a nil done never fires.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// fixpoint drives the worklist to the fixed point, polling ctx every
// pollEvery iterations; when canceled it abandons the analysis with
// ctx.Err().
func (v *verifier) fixpoint() error {
	done := v.ctx.Done()
	if v.entry == nil {
		return nil
	}
	v.contribute(v.entry, 0, true, &state{w: make([]uint64, v.size), untainted: true})
	for len(v.wl) > 0 {
		if v.stats.Iterations%pollEvery == 0 && canceled(done) {
			return v.ctx.Err()
		}
		c := v.wl[len(v.wl)-1]
		v.wl = v.wl[:len(v.wl)-1]
		c.queued = false
		v.stats.Iterations++
		v.transfer(c)
	}
	v.stats.Contexts = len(v.order)
	return nil
}

// report is the deterministic reporting pass over the stabilized
// states. It polls ctx between contexts, and the witness search polls
// it too, so a canceled verification stops with ctx.Err() instead of
// finishing up to 200 witness searches.
func (v *verifier) report() error {
	done := v.ctx.Done()
	v.reporting = true
	sort.Slice(v.order, func(i, j int) bool {
		a, b := v.order[i], v.order[j]
		if a.node.Pre != b.node.Pre {
			return a.node.Pre < b.node.Pre
		}
		if a.f != b.f {
			return v.fr.keys[a.f] < v.fr.keys[b.f]
		}
		return a.outside && !b.outside
	})
	for i, c := range v.order {
		if i%pollEvery == 0 && canceled(done) {
			return v.ctx.Err()
		}
		v.cur = c
		v.transfer(c)
		if v.err != nil {
			return v.err
		}
	}
	return nil
}

func entryChild(h *interval.Node) *interval.Node {
	for _, e := range h.Out {
		if e.Type == interval.Entry {
			return e.To
		}
	}
	return nil
}

// transfer evaluates one context: replays the node's events on a copy
// of the IN state and feeds the per-edge results to the successor
// contexts (or, in the reporting pass, emits diagnostics at the check
// points instead).
func (v *verifier) transfer(c *dfContext) {
	n := c.node
	st := v.borrow(&c.in)
	defer v.release(st)

	// Events fire on every visit of a plain node but only on construct
	// entry from outside for headers (core.Verify step()).
	if !n.IsHeader || c.outside {
		v.production(n, st, phaseIn)
		v.takeEv(n, st)
		v.giveEv(n, st)
		v.stealEv(n, st)
	}

	if n.IsHeader {
		if c.outside || !v.fr.has(c.f, n.ID) {
			// Construct entry: branch over zero vs. at-least-one trip.
			bodyF := v.fr.step(c.f, opWith, n)
			v.recordSnap(n.ID, bodyF, st)

			zst := v.borrow(st)
			v.skippedGive(n, zst)
			if c.outside {
				v.taint(zst)
			}
			v.exitEdges(n, c.f, zst)
			v.release(zst)

			if child := entryChild(n); child != nil {
				v.contribute(child, bodyF, true, st)
			} else {
				// Degenerate loop without a body: fall through to the
				// exits with the frame popped again.
				v.exitEdges(n, c.f, st)
			}
			return
		}
		// Iteration via the cycle edge: availability knowledge resets to
		// what held at loop entry, minus the body's may-steal summary —
		// Eq. 11 inherits GIVEN(h) − STEAL(h) into every iteration, so a
		// steal on any body path blinds the framework on all of them.
		if s, ok := v.snaps[snapKey{n.ID, c.f}]; ok {
			steal := v.p.Sol.Steal.Row(n.ID)
			for m := 0; m < 2; m++ {
				o1 := v.vec(st, vAvailO1Must+m)
				o1.and(s[m*v.uw : (m+1)*v.uw])
				o1.andNot(steal)
				v.stats.SetOps += 2
			}
		} else {
			v.forgetO1(st)
		}
		if child := entryChild(n); child != nil {
			v.contribute(child, c.f, true, st)
		}
		v.exitEdges(n, v.fr.step(c.f, opWithout, n), st)
		return
	}

	// Plain node: RES_out fires on the way out, then each C/F/J edge.
	fired := false
	exited := false
	for _, e := range n.Out {
		switch e.Type {
		case interval.Cycle, interval.Forward, interval.Jump:
		default:
			continue
		}
		if !fired {
			v.production(n, st, phaseOut)
			fired = true
		}
		exited = true
		switch e.Type {
		case interval.Cycle:
			v.contribute(e.To, c.f, false, st)
		case interval.Forward:
			v.contribute(e.To, c.f, true, st)
		case interval.Jump:
			v.jump(e.To, c.f, st)
		}
	}
	if !exited {
		v.terminal(n, st)
	}
}

// forgetO1 clears availO1Must in both modes.
func (v *verifier) forgetO1(st *state) {
	words(st.w[vAvailO1Must*v.uw : (vAvailO1Must+2)*v.uw]).clear()
}

// exitEdges leaves a loop construct: RES_out of the header fires once
// on st, then every FORWARD/JUMP exit receives the state under frame
// set f. With no exit edge the construct ends the program.
func (v *verifier) exitEdges(h *interval.Node, f int32, st *state) {
	fired := false
	exited := false
	for _, e := range h.Out {
		if e.Type != interval.Forward && e.Type != interval.Jump {
			continue
		}
		if !fired {
			v.production(h, st, phaseOut)
			fired = true
		}
		exited = true
		if e.Type == interval.Jump {
			v.jump(e.To, f, st)
		} else {
			v.contribute(e.To, f, true, st)
		}
	}
	if !exited {
		v.terminal(h, st)
	}
}

func (v *verifier) taint(st *state) {
	st.untainted = false
	words(st.w[vPendingU*v.uw : (vPendingU+2)*v.uw]).clear()
}

type phase int

const (
	phaseIn phase = iota
	phaseOut
)

// resAt returns the EAGER and LAZY RES rows of node n at its entry
// (phaseIn) or exit (phaseOut).
func (v *verifier) resAt(n *interval.Node, ph phase) (eager, lazy words) {
	e, l := &v.p.Sol.Eager, &v.p.Sol.Lazy
	if ph == phaseIn {
		return e.ResIn.Row(n.ID), l.ResIn.Row(n.ID)
	}
	return e.ResOut.Row(n.ID), l.ResOut.Row(n.ID)
}

// production replays a RES event (RES_in or RES_out) of both modes:
// the O1 check and availability bookkeeping per mode, then the C1
// balance protocol (EAGER opens, LAZY closes). Order matches
// core.Verify's produce/produceExit.
func (v *verifier) production(n *interval.Node, st *state, ph phase) {
	eager, lazy := v.resAt(n, ph)
	for m, r := range [2]words{eager, lazy} {
		if r.isEmpty() {
			continue
		}
		avail, o1, pend := v.vec(st, vAvailMust+m), v.vec(st, vAvailO1Must+m), v.vec(st, vPendingU+m)
		r.forEach(func(i int) {
			from := v.fromMay(st, m, i)
			self := v.producer(m, i, n.ID)
			if v.reporting && o1.has(i) && !from.has(self) {
				v.emit(CodeReproduction, "O1", m, i, n, "item produced while still available", fpO1, ph)
			}
			avail.add(i)
			o1.add(i)
			from.clear()
			from.add(self)
			if st.untainted {
				pend.add(i)
			}
		})
		v.stats.SetOps += 3
	}
	openMust, openMay := v.vec(st, vOpenMust), v.vec(st, vOpenMay)
	eager.forEach(func(i int) {
		if v.reporting && openMay.has(i) {
			v.emit(CodeStartedTwice, "C1", 0, i, n, "production started twice without a stop", fpOpen, ph)
		}
		openMust.add(i)
		openMay.add(i)
	})
	lazy.forEach(func(i int) {
		if v.reporting && !openMust.has(i) {
			v.emit(CodeStopWithoutStart, "C1", 1, i, n, "production stopped without a start", fpClose, ph)
		}
		openMust.remove(i)
		openMay.remove(i)
	})
}

func (v *verifier) takeEv(n *interval.Node, st *state) {
	t := words(v.p.Init.Take.Row(n.ID))
	if t.isEmpty() {
		return
	}
	t.forEach(func(i int) {
		for m := 0; m < 2; m++ {
			if v.reporting && !v.vec(st, vAvailMust+m).has(i) {
				v.emit(CodeConsumerStarved, "C3", m, i, n, "consumer without available production", fpTake, phaseIn)
			}
			v.vec(st, vPendingU+m).remove(i)
		}
	})
	v.stats.SetOps += 2
}

func (v *verifier) giveEv(n *interval.Node, st *state) {
	gv := words(v.p.Init.Give.Row(n.ID))
	if gv.isEmpty() {
		return
	}
	v.provide(st, gv)
}

// provide makes every item of g available as externally produced, in
// both modes.
func (v *verifier) provide(st *state, g []uint64) {
	for m := 0; m < 2; m++ {
		v.vec(st, vAvailMust+m).or(g)
		v.vec(st, vAvailO1Must+m).or(g)
		words(g).forEach(func(i int) {
			from := v.fromMay(st, m, i)
			from.clear()
			from.add(0)
		})
		v.stats.SetOps += 3
	}
}

func (v *verifier) stealEv(n *interval.Node, st *state) {
	sw := words(v.p.Init.Steal.Row(n.ID))
	if sw.isEmpty() {
		return
	}
	for m := 0; m < 2; m++ {
		pend := v.vec(st, vPendingU+m)
		if v.reporting {
			sw.forEach(func(i int) {
				if pend.has(i) {
					v.emit(CodeStolenPending, "C2", m, i, n, "production stolen before being consumed", fpSteal, phaseIn)
				}
			})
		}
		v.vec(st, vAvailMust+m).andNot(sw)
		v.vec(st, vAvailO1Must+m).andNot(sw)
		pend.andNot(sw)
		sw.forEach(func(i int) { v.fromMay(st, m, i).clear() })
		v.stats.SetOps += 4
	}
}

// skippedGive adds the summary of a loop executed zero times: its
// surviving free production GIVE(h)−STEAL(h) is vacuously satisfied
// (paper §2) and counts as externally provided.
func (v *verifier) skippedGive(h *interval.Node, st *state) {
	steal := v.p.Sol.Steal.Row(h.ID)
	live := uint64(0)
	for i, g := range v.p.Sol.Give.Row(h.ID) {
		v.tmp[i] = g &^ steal[i]
		live |= v.tmp[i]
	}
	if live != 0 {
		v.provide(st, v.tmp)
	}
}

// terminal checks a program-exit state: no region may still be open
// (C1) and nothing may be pending on an all-trips path (C2).
func (v *verifier) terminal(n *interval.Node, st *state) {
	if !v.reporting {
		return
	}
	v.vec(st, vOpenMay).forEach(func(i int) {
		v.emit(CodeOpenAtExit, "C1", -1, i, n, "production still open at program exit", fpEnd, phaseIn)
	})
	for m := 0; m < 2; m++ {
		v.vec(st, vPendingU+m).forEach(func(i int) {
			v.emit(CodeNeverConsumed, "C2", m, i, n, "production never consumed", fpEnd, phaseIn)
		})
	}
}

func modeName(m int) string {
	switch m {
	case 0:
		return "eager"
	case 1:
		return "lazy"
	}
	return ""
}

// emit records one error diagnostic (deduplicated per code, node, item
// and mode across contexts) with its source anchor and path witness.
func (v *verifier) emit(code, criterion string, m, item int, n *interval.Node, detail string, fp firePoint, ph phase) {
	key := dedupKey{code, n.ID, item, m}
	if v.err != nil || v.dedup[key] || len(v.diags) >= 200 {
		return
	}
	v.dedup[key] = true
	d := Diagnostic{
		Code:      code,
		Severity:  Error,
		Problem:   v.p.Name,
		Criterion: criterion,
		Item:      item,
		ItemName:  v.p.itemName(item),
		Node:      n.ID,
		Pre:       n.Pre + 1,
		Pos:       cfg.Anchor(n.Block),
		Detail:    detail,
	}
	if m >= 0 {
		d.Mode = modeName(m)
	}
	mode := m
	if mode < 0 {
		mode = 0
	}
	d.Path = v.witness(witnessGoal{ctx: v.cur, fp: fp, ph: ph, item: item, mode: mode, node: n.ID, code: code})
	if v.err != nil {
		return
	}
	v.diags = append(v.diags, d)
}
