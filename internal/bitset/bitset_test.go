package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicAddRemoveHas(t *testing.T) {
	s := New(130)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) = false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestOfAndItems(t *testing.T) {
	s := Of(100, 3, 1, 99, 50)
	want := []int{1, 3, 50, 99}
	if got := s.Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
}

func TestWords(t *testing.T) {
	s := Of(130, 0, 64, 129)
	want := []uint64{1, 1, 2}
	if got := s.Words(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %#x, want %#x", got, want)
	}
	if got := NewFull(70).Words(); got[1] != 1<<6-1 {
		t.Fatalf("NewFull(70) last word %#x, want bits beyond Len zero", got[1])
	}
}

func TestFullAndTrim(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := NewFull(n)
		if s.Count() != n {
			t.Fatalf("NewFull(%d).Count = %d", n, s.Count())
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	New(10).Add(10)
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on universe mismatch")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestSetAlgebra(t *testing.T) {
	a := Of(70, 1, 2, 3, 65)
	b := Of(70, 2, 3, 4, 66)

	if got := Union(a, b).Items(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 65, 66}) {
		t.Errorf("Union = %v", got)
	}
	if got := Intersect(a, b).Items(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := Subtract(a, b).Items(); !reflect.DeepEqual(got, []int{1, 65}) {
		t.Errorf("Subtract = %v", got)
	}
}

func TestContainsAllIntersects(t *testing.T) {
	a := Of(70, 1, 2, 3)
	b := Of(70, 2, 3)
	c := Of(70, 4)
	if !a.ContainsAll(b) {
		t.Error("a should contain all of b")
	}
	if b.ContainsAll(a) {
		t.Error("b should not contain all of a")
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	if !a.ContainsAll(New(70)) {
		t.Error("every set contains the empty set")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Fatal("Clone aliases storage")
	}
}

func TestCopy(t *testing.T) {
	a := Of(10, 1, 2)
	b := Of(10, 5)
	b.Copy(a)
	if !b.Equal(a) {
		t.Fatal("Copy did not replicate")
	}
}

func TestString(t *testing.T) {
	s := Of(10, 1, 5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	if got := s.StringWith(func(i int) string { return names[i] }); got != "{b, f}" {
		t.Fatalf("StringWith = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// randomSet builds a set plus its reference map representation.
func randomSet(r *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := map[int]bool{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
			m[i] = true
		}
	}
	return s, m
}

// TestQuickAgainstMapModel cross-checks the word-level algebra against a
// map-based model, via testing/quick seeds.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, ma := randomSet(r, n)
		b, mb := randomSet(r, n)

		u := Union(a, b)
		in := Intersect(a, b)
		d := Subtract(a, b)
		for i := 0; i < n; i++ {
			if u.Has(i) != (ma[i] || mb[i]) {
				return false
			}
			if in.Has(i) != (ma[i] && mb[i]) {
				return false
			}
			if d.Has(i) != (ma[i] && !mb[i]) {
				return false
			}
		}
		return u.Count() >= a.Count() && in.Count() <= a.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLatticeLaws checks the semilattice identities the GIVE-N-TAKE
// equations rely on (idempotence, absorption, De Morgan-ish difference).
func TestQuickLatticeLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		c, _ := randomSet(r, n)

		// idempotence
		if !Union(a, a).Equal(a) || !Intersect(a, a).Equal(a) {
			return false
		}
		// commutativity
		if !Union(a, b).Equal(Union(b, a)) || !Intersect(a, b).Equal(Intersect(b, a)) {
			return false
		}
		// associativity
		if !Union(Union(a, b), c).Equal(Union(a, Union(b, c))) {
			return false
		}
		// absorption
		if !Union(a, Intersect(a, b)).Equal(a) {
			return false
		}
		// a − b = a ∩ ¬b  ⇒  (a−b) ∪ (a∩b) = a
		if !Union(Subtract(a, b), Intersect(a, b)).Equal(a) {
			return false
		}
		// difference distributes: (a∪b) − c = (a−c) ∪ (b−c)
		if !Subtract(Union(a, b), c).Equal(Union(Subtract(a, c), Subtract(b, c))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith1024(b *testing.B) {
	x := NewFull(1024)
	y := NewFull(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}
