// Package bitset provides dense bit-vector sets used as the dataflow
// lattice of the GIVE-N-TAKE framework.
//
// The framework's meet semilattice L is a powerset lattice over a finite
// universe of items (value-numbered array sections, expressions, ...).
// All GIVE-N-TAKE equations (Fig. 13 of the paper) are unions,
// intersections and differences over this lattice, so a packed bit vector
// with word-at-a-time operations keeps the per-equation cost at
// O(universe/64), matching the "bit vectors of a certain length" cost
// model of paper §5.2.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Len()).
// The zero value is not usable; create Sets with New.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over a universe of n items.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFull returns a set containing every item of an n-item universe (the
// lattice top element).
func NewFull(n int) *Set {
	s := New(n)
	s.Fill()
	return s
}

// Of returns a set over an n-item universe containing the given items.
func Of(n int, items ...int) *Set {
	s := New(n)
	for _, it := range items {
		s.Add(it)
	}
	return s
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts item i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes item i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Has reports whether item i is in the set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: item %d out of universe [0,%d)", i, s.n))
	}
}

// Words returns the packed words of s, item i at bit i%64 of word i/64,
// for callers that keep their own word-level representation. Bits at or
// beyond Len() are zero. The slice aliases s and must not be modified.
func (s *Set) Words() []uint64 { return s.words }

// Clear removes all items.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds all items of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond the universe in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of t. The universes must match.
func (s *Set) Copy(t *Set) {
	s.compat(t)
	copy(s.words, t.words)
}

func (s *Set) compat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, t.n))
	}
}

// UnionWith adds every item of t to s (s ∪= t).
func (s *Set) UnionWith(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith keeps only items also in t (s ∩= t).
func (s *Set) IntersectWith(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// SubtractWith removes every item of t from s (s −= t).
func (s *Set) SubtractWith(t *Set) {
	s.compat(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Union returns a new set s ∪ t.
func Union(s, t *Set) *Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns a new set s ∩ t.
func Intersect(s, t *Set) *Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Subtract returns a new set s − t.
func Subtract(s, t *Set) *Set {
	c := s.Clone()
	c.SubtractWith(t)
	return c
}

// Equal reports whether s and t contain exactly the same items.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the set has no items.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every item of t is in s (t ⊆ s).
func (s *Set) ContainsAll(t *Set) bool {
	s.compat(t)
	for i, w := range t.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one item.
func (s *Set) Intersects(t *Set) bool {
	s.compat(t)
	for i, w := range t.words {
		if w&s.words[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of items in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every item in the set, in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Items returns the members of the set in increasing order.
func (s *Set) Items() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// StringWith renders the set using name(i) for each member, e.g. "{x_k, y_b}".
func (s *Set) StringWith(name func(i int) string) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(name(i))
	})
	b.WriteByte('}')
	return b.String()
}
