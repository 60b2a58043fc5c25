package bitset

import "testing"

// Rows of an arena slab alias the arena's buffer, so a Set view writes
// through to the words every other view of that row sees.
func TestArenaSlabRowsAlias(t *testing.T) {
	var a Arena
	a.NewSlab(3, 130) // first cycle spills and sizes the buffer
	a.Reset()
	s := a.NewSlab(3, 130)
	if s.Rows() != 3 || s.Universe() != 130 || len(s.Row(0)) != 3 {
		t.Fatalf("slab shape: rows %d universe %d words %d", s.Rows(), s.Universe(), len(s.Row(0)))
	}
	s.At(1).Add(129)
	if &s.Row(1)[0] != &a.buf[3] {
		t.Fatal("row 1 does not alias the arena buffer")
	}
	if a.buf[5] != 1<<1 {
		t.Fatalf("view write missed the buffer: word %#x", a.buf[5])
	}
	if !s.At(1).Has(129) || s.At(0).Count() != 0 || s.At(2).Count() != 0 {
		t.Fatal("write through one view leaked into another row")
	}
}

func TestArenaCarveAndReset(t *testing.T) {
	var a Arena
	s1 := a.NewSlab(3, 130)
	s1.At(0).Add(5)
	s1.At(2).Add(129)
	if a.Footprint() == 0 {
		t.Fatal("arena should have recorded demand")
	}
	a.Reset()
	before := a.Footprint()

	s2 := a.NewSlab(3, 130)
	for i := 0; i < 3; i++ {
		s2.Fill(i) // leave stale bits in the buffer
	}
	a.Reset()
	s3 := a.NewSlab(3, 130)
	if a.Footprint() != before {
		t.Fatalf("same-shape cycle grew arena: %d -> %d", before, a.Footprint())
	}
	for i := 0; i < s3.Rows(); i++ {
		if !s3.At(i).IsEmpty() {
			t.Fatalf("row %d not cleared after Reset: %v", i, s3.At(i))
		}
	}
}

// A cycle that outgrows the buffer is served by a fresh allocation and
// counted as spill; the next Reset grows the buffer so the same shape
// then fits without growing again.
func TestArenaSlabSpillGrowsNextCycle(t *testing.T) {
	var a Arena
	a.NewSlab(2, 64)
	a.Reset()
	small := a.Footprint()

	s := a.NewSlab(10, 1000)
	if len(s.Row(9)) != 16 {
		t.Fatalf("spilled slab has %d words per row, want 16", len(s.Row(9)))
	}
	if a.Footprint() != small+160 {
		t.Fatalf("spill not recorded: footprint %d, want %d", a.Footprint(), small+160)
	}
	a.Reset()
	grown := a.Footprint()
	a.NewSlab(10, 1000)
	if a.Footprint() != grown {
		t.Fatalf("grown arena spilled again: %d -> %d", grown, a.Footprint())
	}
	a.Reset()
	if a.Footprint() != grown {
		t.Fatalf("repeated same-shape cycle should not grow: %d -> %d", grown, a.Footprint())
	}
}

// Fill trims the last word to the universe, so a full row never spills
// into the first word of its neighbour.
func TestSlabFillKeepsNeighbourRow(t *testing.T) {
	for _, s := range []Slab{NewSlab(3, 70), new(Arena).NewSlab(3, 70)} {
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
}

func TestArenaNilFallsBack(t *testing.T) {
	var a *Arena
	s := a.NewSlab(2, 64)
	if s.Rows() != 2 || s.Universe() != 64 {
		t.Fatalf("nil arena fallback broken: %d rows over %d", s.Rows(), s.Universe())
	}
	a.Reset() // must not panic
	if a.Footprint() != 0 {
		t.Fatal("nil arena has no footprint")
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
