package bitset

import "testing"

// Rows of a slab alias its word buffer, so a Set view writes through to
// the words every other view of that row sees.
func TestSlabRowsAlias(t *testing.T) {
	s := NewSlab(3, 130)
	if s.Rows() != 3 || s.Universe() != 130 || len(s.Row(0)) != 3 {
		t.Fatalf("slab shape: rows %d universe %d words %d", s.Rows(), s.Universe(), len(s.Row(0)))
	}
	s.At(1).Add(129)
	if &s.Row(1)[0] != &s.words[3] {
		t.Fatal("row 1 does not alias the slab's words")
	}
	if s.words[5] != 1<<1 {
		t.Fatalf("view write missed the words: word %#x", s.words[5])
	}
	if !s.At(1).Has(129) || s.At(0).Count() != 0 || s.At(2).Count() != 0 {
		t.Fatal("write through one view leaked into another row")
	}
}

// Fill trims the last word to the universe, so a full row never spills
// into the first word of its neighbour.
func TestSlabFillKeepsNeighbourRow(t *testing.T) {
	s := NewSlab(3, 70)
	s.Fill(1)
	if got := s.At(1).Count(); got != 70 {
		t.Fatalf("filled row has %d items, want 70", got)
	}
	if s.Row(1)[1] != 1<<6-1 {
		t.Fatalf("last word of a filled row = %#x, want %#x", s.Row(1)[1], uint64(1<<6-1))
	}
	if !s.At(0).IsEmpty() || !s.At(2).IsEmpty() {
		t.Fatalf("Fill touched a neighbour row: %v %v", s.At(0), s.At(2))
	}
}

func TestRowOps(t *testing.T) {
	s := NewSlab(3, 100)
	a, b, c := s.At(0), s.At(1), s.At(2)
	for _, i := range []int{1, 64, 99} {
		a.Add(i)
	}
	for _, i := range []int{64, 70} {
		b.Add(i)
	}
	copy(s.Row(2), s.Row(0))
	Or(s.Row(2), s.Row(1))
	if c.String() != "{1, 64, 70, 99}" {
		t.Errorf("Or = %v", c)
	}
	copy(s.Row(2), s.Row(0))
	And(s.Row(2), s.Row(1))
	if c.String() != "{64}" {
		t.Errorf("And = %v", c)
	}
	copy(s.Row(2), s.Row(0))
	AndNot(s.Row(2), s.Row(1))
	if c.String() != "{1, 99}" {
		t.Errorf("AndNot = %v", c)
	}
}
