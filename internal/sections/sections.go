// Package sections builds the communication universe: each distinct
// (array, value-numbered subscript) pair occurring in a program becomes
// one item of the dataflow lattice, described as a regular section in the
// paper's notation — x(11:N+10) for x(k+10) under do k = 1,N, or
// x(a(1:N)) for the indirect reference x(a(k)).
//
// Items carry enough structure for the two questions communication
// generation asks: may two sections of the same array overlap (for
// STEAL_init), and does a section's subscript depend on an indirection
// array (a definition of that array also steals the section)?
package sections

import (
	"fmt"
	"strings"

	"givetake/internal/ir"
	"givetake/internal/vn"
)

// Item is one element of the communication universe.
type Item struct {
	// ID is the dense universe index.
	ID int
	// Array is the distributed array communicated.
	Array string
	// Subs are the canonical value numbers of the subscripts, one per
	// dimension.
	Subs []vn.Num
	// Reprs are representative subscript expressions (as written at the
	// first occurrence), one per dimension.
	Reprs []ir.Expr
	// Ranges maps induction variables free in Reprs to their loop bounds
	// at the first occurrence, for printing the vectorized section.
	Ranges map[string]LoopRange
	// IndirectArrays lists arrays read inside the subscript (x(a(k))
	// depends on a); a definition of such an array steals this item.
	IndirectArrays []string

	// per-dimension numeric subscript bounds, when derivable.
	lo, hi  []int64
	bounded []bool
}

// LoopRange snapshots a loop's bounds for section printing; Step may be
// nil (meaning 1).
type LoopRange struct {
	Lo, Hi, Step ir.Expr
}

// Universe interns items.
type Universe struct {
	Tab   *vn.Table
	Items []*Item
	byKey map[string]*Item
}

// NewUniverse returns an empty universe over a fresh value-number table.
func NewUniverse() *Universe {
	return &Universe{Tab: vn.NewTable(), byKey: map[string]*Item{}}
}

// Size returns the number of interned items.
func (u *Universe) Size() int { return len(u.Items) }

// ItemFor interns (array, subscripts-under-env) and returns its item.
// ranges snapshots the enclosing loop bounds for printing. Returns nil
// for subscripts the value numberer cannot handle.
func (u *Universe) ItemFor(array string, subs []ir.Expr, env *vn.Env, ranges map[string]LoopRange) *Item {
	if len(subs) == 0 {
		return nil
	}
	nums := make([]vn.Num, len(subs))
	key := array + "|"
	for i, sub := range subs {
		nums[i] = env.Number(sub)
		if nums[i] == vn.Invalid {
			return nil
		}
		key += u.Tab.Key(nums[i]) + "|"
	}
	if it, ok := u.byKey[key]; ok {
		return it
	}
	it := &Item{
		ID:     len(u.Items),
		Array:  array,
		Subs:   nums,
		Ranges: map[string]LoopRange{},
	}
	for _, sub := range subs {
		it.Reprs = append(it.Reprs, ir.CloneExpr(sub))
		for _, ref := range ir.ArrayRefs(sub) {
			it.IndirectArrays = append(it.IndirectArrays, ref.Name)
		}
	}
	for v, r := range ranges {
		it.Ranges[v] = r
	}
	it.lo = make([]int64, len(nums))
	it.hi = make([]int64, len(nums))
	it.bounded = make([]bool, len(nums))
	for i, n := range nums {
		it.lo[i], it.hi[i], it.bounded[i] = bounds(u.Tab, n)
	}
	u.Items = append(u.Items, it)
	u.byKey[key] = it
	return it
}

// bounds derives numeric subscript bounds from the value-number
// structure: constants are exact, iotas use their range when the range
// bounds are constants, sums/differences combine monotonically.
func bounds(t *vn.Table, n vn.Num) (lo, hi int64, ok bool) {
	if v, isConst := t.ConstVal(n); isConst {
		return v, v, true
	}
	if r, isIota := t.RangeOf(n); isIota {
		lov, lok := t.ConstVal(r.Lo)
		hiv, hok := t.ConstVal(r.Hi)
		if lok && hok {
			return lov, hiv, true
		}
		return 0, 0, false
	}
	if op, a, b, isBin := t.Op(n); isBin {
		alo, ahi, aok := bounds(t, a)
		blo, bhi, bok := bounds(t, b)
		if aok && bok {
			switch op {
			case "+":
				return alo + blo, ahi + bhi, true
			case "-":
				return alo - bhi, ahi - blo, true
			}
		}
	}
	return 0, 0, false
}

// strideClass derives (modulus, residue) for a subscript whose values
// all satisfy value ≡ residue (mod modulus): constants give any
// modulus, affine forms coeff·i + offset over a loop i = lo, hi, step
// with constant coeff, lo, and step give modulus |coeff·step|. ok is
// false when no such classification is derivable.
func strideClass(t *vn.Table, n vn.Num, wantMod int64) (residue int64, ok bool) {
	coeff, offset, iota, affOK := t.Affine(n)
	if !affOK || wantMod < 2 {
		return 0, false
	}
	if iota == vn.Invalid { // constant
		return mod(offset, wantMod), true
	}
	r, _ := t.RangeOf(iota)
	lov, lok := t.ConstVal(r.Lo)
	stv, sok := t.ConstVal(r.Step)
	if !lok || !sok {
		return 0, false
	}
	stride := coeff * stv
	if stride < 0 {
		stride = -stride
	}
	if stride%wantMod != 0 {
		return 0, false // values wander across residue classes of wantMod
	}
	return mod(coeff*lov+offset, wantMod), true
}

// modulus returns the natural stride modulus of a subscript, or 0.
func modulus(t *vn.Table, n vn.Num) int64 {
	coeff, _, iota, ok := t.Affine(n)
	if !ok || iota == vn.Invalid {
		return 0
	}
	r, _ := t.RangeOf(iota)
	stv, sok := t.ConstVal(r.Step)
	if !sok {
		return 0
	}
	m := coeff * stv
	if m < 0 {
		m = -m
	}
	return m
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// NumericBounds reports the derived numeric range of dimension d.
func (it *Item) NumericBounds(d int) (lo, hi int64, ok bool) {
	if d >= len(it.bounded) {
		return 0, 0, false
	}
	return it.lo[d], it.hi[d], it.bounded[d]
}

// Dims returns the number of subscript dimensions.
func (it *Item) Dims() int { return len(it.Subs) }

// Indirect reports whether the subscript goes through another array.
func (it *Item) Indirect() bool { return len(it.IndirectArrays) > 0 }

// UsesArray reports whether the subscript reads the named array.
func (it *Item) UsesArray(name string) bool {
	for _, a := range it.IndirectArrays {
		if a == name {
			return true
		}
	}
	return false
}

// MayOverlap reports whether two items can denote overlapping array
// elements. Different arrays never overlap; equal items always do;
// otherwise overlap is assumed unless both have numeric bounds that are
// disjoint. (The Universe method additionally proves stride-based
// disjointness.)
func MayOverlap(a, b *Item) bool {
	if a.Array != b.Array {
		return false
	}
	if a.ID == b.ID {
		return true
	}
	// a single provably disjoint dimension separates the sections
	for d := 0; d < len(a.Subs) && d < len(b.Subs); d++ {
		if a.bounded[d] && b.bounded[d] && (a.hi[d] < b.lo[d] || b.hi[d] < a.lo[d]) {
			return false
		}
	}
	// Unbounded (symbolic or indirect) sections of one array may
	// otherwise overlap.
	return true
}

// MayOverlap is the universe-aware overlap test: besides the bounds of
// the package-level MayOverlap it proves stride disjointness — x(2k)
// and x(2k+1) never collide because their subscripts fall in different
// residue classes of the common stride, even with symbolic loop bounds.
func (u *Universe) MayOverlap(a, b *Item) bool {
	if !MayOverlap(a, b) {
		return false
	}
	if a.ID == b.ID || a.Array != b.Array {
		return a.ID == b.ID
	}
	for d := 0; d < len(a.Subs) && d < len(b.Subs); d++ {
		m := modulus(u.Tab, a.Subs[d])
		if mb := modulus(u.Tab, b.Subs[d]); mb > m {
			m = mb
		}
		if m >= 2 {
			ra, okA := strideClass(u.Tab, a.Subs[d], m)
			rb, okB := strideClass(u.Tab, b.Subs[d], m)
			if okA && okB && ra != rb {
				return false
			}
		}
	}
	return true
}

// String renders the item as the paper writes it: the representative
// subscript with induction variables expanded to range triplets, and
// constant arithmetic folded — x(a(k)) under k=1,N prints as x(a(1:N)).
func (it *Item) String() string {
	return ir.ExprString(it.SectionExpr())
}

// SectionExpr returns the item as an array-section expression, e.g.
// x(11:n + 10) or x(1:n, 2:m+1), for embedding in generated
// communication statements.
func (it *Item) SectionExpr() ir.Expr {
	subs := make([]ir.Expr, len(it.Reprs))
	for i, r := range it.Reprs {
		subs[i] = fold(lift(substitute(r, it.Ranges)))
	}
	return &ir.ArrayRef{Name: it.Array, Subs: subs}
}

// SectionTable memoizes SectionExpr by item ID for one rendering pass:
// each item's expression is derived on first use and the same Expr is
// returned after that, so every statement that names the item shares
// it. A table belongs to one pass and is not safe for concurrent use.
type SectionTable struct {
	items []*Item
	exprs []ir.Expr
}

// SectionTable returns an empty table over the universe's items.
func (u *Universe) SectionTable() *SectionTable {
	return &SectionTable{items: u.Items, exprs: make([]ir.Expr, len(u.Items))}
}

// Expr returns item id's section expression.
func (t *SectionTable) Expr(id int) ir.Expr {
	e := t.exprs[id]
	if e == nil {
		e = t.items[id].SectionExpr()
		t.exprs[id] = e
	}
	return e
}

// substitute replaces each ranged variable with a RangeExpr over its
// bounds, so x(a(k)) becomes x(a(1:n)) with the triplet inside the
// indirection, as the paper prints it.
func substitute(e ir.Expr, ranges map[string]LoopRange) ir.Expr {
	switch e := e.(type) {
	case *ir.Ident:
		if r, ok := ranges[e.Name]; ok {
			out := &ir.RangeExpr{Lo: ir.CloneExpr(r.Lo), Hi: ir.CloneExpr(r.Hi)}
			if r.Step != nil {
				if lit, isOne := r.Step.(*ir.IntLit); !isOne || lit.Value != 1 {
					out.Stride = ir.CloneExpr(r.Step)
				}
			}
			return out
		}
		return e
	case *ir.BinExpr:
		return &ir.BinExpr{Position: e.Position, Op: e.Op,
			X: substitute(e.X, ranges), Y: substitute(e.Y, ranges)}
	case *ir.UnaryExpr:
		return &ir.UnaryExpr{Position: e.Position, Op: e.Op, X: substitute(e.X, ranges)}
	case *ir.ArrayRef:
		subs := make([]ir.Expr, len(e.Subs))
		for i, s := range e.Subs {
			subs[i] = substitute(s, ranges)
		}
		return &ir.ArrayRef{Position: e.Position, Name: e.Name, Subs: subs}
	default:
		return e
	}
}

// lift distributes arithmetic over ranges so (1:n) + 10 becomes
// 11:n+10. Loop bounds are assumed nonnegative and strides positive, so
// +, - and * are monotone; this is a printing aid, not an analysis.
func lift(e ir.Expr) ir.Expr {
	switch e := e.(type) {
	case *ir.BinExpr:
		x, y := lift(e.X), lift(e.Y)
		xr, xok := x.(*ir.RangeExpr)
		yr, yok := y.(*ir.RangeExpr)
		bin := func(a, b ir.Expr) ir.Expr { return &ir.BinExpr{Op: e.Op, X: a, Y: b} }
		switch {
		case xok && yok && e.Op == "+":
			return mkStride(bin(xr.Lo, yr.Lo), bin(xr.Hi, yr.Hi), xr.Stride)
		case xok && (e.Op == "+" || e.Op == "-"):
			return mkStride(bin(xr.Lo, y), bin(xr.Hi, y), xr.Stride)
		case xok && e.Op == "*":
			return mkStride(bin(xr.Lo, y), bin(xr.Hi, y), scaleStride(xr.Stride, y))
		case yok && e.Op == "+":
			return mkStride(bin(x, yr.Lo), bin(x, yr.Hi), yr.Stride)
		case yok && e.Op == "*":
			return mkStride(bin(x, yr.Lo), bin(x, yr.Hi), scaleStride(yr.Stride, x))
		case yok && e.Op == "-":
			return mkStride(bin(x, yr.Hi), bin(x, yr.Lo), yr.Stride)
		default:
			return &ir.BinExpr{Position: e.Position, Op: e.Op, X: x, Y: y}
		}
	case *ir.UnaryExpr:
		return &ir.UnaryExpr{Position: e.Position, Op: e.Op, X: lift(e.X)}
	case *ir.ArrayRef:
		subs := make([]ir.Expr, len(e.Subs))
		for i, s := range e.Subs {
			subs[i] = lift(s)
		}
		return &ir.ArrayRef{Position: e.Position, Name: e.Name, Subs: subs}
	default:
		return e
	}
}

// fold evaluates constant integer arithmetic so 1 + 10 prints as 11.
func fold(e ir.Expr) ir.Expr {
	b, ok := e.(*ir.BinExpr)
	if !ok {
		switch e := e.(type) {
		case *ir.ArrayRef:
			subs := make([]ir.Expr, len(e.Subs))
			for i, s := range e.Subs {
				subs[i] = fold(s)
			}
			return &ir.ArrayRef{Position: e.Position, Name: e.Name, Subs: subs}
		case *ir.RangeExpr:
			lo, hi := fold(e.Lo), fold(e.Hi)
			if ir.ExprString(lo) == ir.ExprString(hi) {
				return lo
			}
			return &ir.RangeExpr{Position: e.Position, Lo: lo, Hi: hi, Stride: e.Stride}
		}
		return e
	}
	x, y := fold(b.X), fold(b.Y)
	xl, xok := x.(*ir.IntLit)
	yl, yok := y.(*ir.IntLit)
	if xok && yok {
		var v int64
		switch b.Op {
		case "+":
			v = xl.Value + yl.Value
		case "-":
			v = xl.Value - yl.Value
		case "*":
			v = xl.Value * yl.Value
		default:
			return &ir.BinExpr{Position: b.Position, Op: b.Op, X: x, Y: y}
		}
		return &ir.IntLit{Position: b.Position, Value: v}
	}
	// canonicalize "1 + n" to "n + 1" style? keep as written
	return &ir.BinExpr{Position: b.Position, Op: b.Op, X: x, Y: y}
}

// mkStride builds a range with an optional stride.
func mkStride(lo, hi, stride ir.Expr) ir.Expr {
	return &ir.RangeExpr{Lo: lo, Hi: hi, Stride: stride}
}

// scaleStride multiplies a stride (nil = 1) by a factor.
func scaleStride(stride, factor ir.Expr) ir.Expr {
	if stride == nil {
		return ir.CloneExpr(factor)
	}
	return &ir.BinExpr{Op: "*", X: ir.CloneExpr(stride), Y: ir.CloneExpr(factor)}
}

// CoalesceExprs merges the section expressions of items that form
// contiguous one-dimensional constant ranges of one array — x(1:5) and
// x(6:10) travel as x(1:10) — returning one expression per remaining
// group. Message coalescing reduces startup costs beyond what placement
// alone achieves; items that cannot merge keep their own sections.
func (u *Universe) CoalesceExprs(items []*Item) []ir.Expr {
	type span struct {
		lo, hi int64
		used   bool
	}
	var out []ir.Expr
	byArray := map[string][]span{}
	var order []string
	for _, it := range items {
		lo, hi, ok := int64(0), int64(0), false
		if it.Dims() == 1 {
			lo, hi, ok = it.NumericBounds(0)
		}
		if !ok {
			out = append(out, it.SectionExpr())
			continue
		}
		if _, seen := byArray[it.Array]; !seen {
			order = append(order, it.Array)
		}
		byArray[it.Array] = append(byArray[it.Array], span{lo: lo, hi: hi})
	}
	for _, array := range order {
		spans := byArray[array]
		// merge transitively: O(n²) over the handful of sections at one
		// placement point
		for changed := true; changed; {
			changed = false
			for i := range spans {
				if spans[i].used {
					continue
				}
				for j := i + 1; j < len(spans); j++ {
					if spans[j].used {
						continue
					}
					if spans[i].hi+1 >= spans[j].lo && spans[j].hi+1 >= spans[i].lo {
						if spans[j].lo < spans[i].lo {
							spans[i].lo = spans[j].lo
						}
						if spans[j].hi > spans[i].hi {
							spans[i].hi = spans[j].hi
						}
						spans[j].used = true
						changed = true
					}
				}
			}
		}
		for _, sp := range spans {
			if sp.used {
				continue
			}
			var sub ir.Expr
			if sp.lo == sp.hi {
				sub = &ir.IntLit{Value: sp.lo}
			} else {
				sub = &ir.RangeExpr{Lo: &ir.IntLit{Value: sp.lo}, Hi: &ir.IntLit{Value: sp.hi}}
			}
			out = append(out, &ir.ArrayRef{Name: array, Subs: []ir.Expr{sub}})
		}
	}
	return out
}

// Describe renders all items, one per line, for debugging.
func (u *Universe) Describe() string {
	var sb strings.Builder
	for _, it := range u.Items {
		fmt.Fprintf(&sb, "%2d: %s\n", it.ID, it)
	}
	return sb.String()
}
