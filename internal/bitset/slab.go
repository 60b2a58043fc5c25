package bitset

// Slab is count sets over one n-item universe, stored as rows of
// ceil(n/64) words in a single pointer-free []uint64. A dataflow solver
// keeps one Slab per variable, indexed by node: the garbage collector
// never scans it, and the solver's equations run on the rows in place.
// Row i holds item j at bit j%64 of word j/64; bits at or beyond the
// universe are always zero.
//
// A Slab is a value; copies share the same words.
type Slab struct {
	rows, n, w int // rows, universe size, words per row
	words      []uint64
}

// NewSlab returns count empty rows over an n-item universe.
func NewSlab(count, n int) Slab {
	if count < 0 || n < 0 {
		panic("bitset: negative slab dimensions")
	}
	w := (n + wordBits - 1) / wordBits
	return Slab{rows: count, n: n, w: w, words: make([]uint64, count*w)}
}

// Rows returns the number of rows.
func (s Slab) Rows() int { return s.rows }

// Universe returns the universe size of every row.
func (s Slab) Universe() int { return s.n }

// Row returns the words of row i. The slice aliases the slab.
func (s Slab) Row(i int) []uint64 {
	return s.words[i*s.w : (i+1)*s.w : (i+1)*s.w]
}

// At returns a Set view of row i for callers that want the Set API.
// The view aliases the slab: changes through it change the row.
func (s Slab) At(i int) *Set {
	return &Set{n: s.n, words: s.Row(i)}
}

// Fill adds every item of the universe to row i.
func (s Slab) Fill(i int) { s.At(i).Fill() }

// Or sets dst |= src word by word; src must be no longer than dst.
func Or(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] |= w
	}
}

// And sets dst &= src word by word; src must be no longer than dst.
func And(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] &= w
	}
}

// AndNot sets dst &^= src word by word; src must be no longer than dst.
func AndNot(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] &^= w
	}
}
