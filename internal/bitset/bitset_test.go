package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyAndAdd(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(129)
	if s.Empty() {
		t.Fatal("set with elements reported empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	for _, i := range []int{1, 62, 65, 128} {
		if s.Has(i) {
			t.Errorf("Has(%d) = true, want false", i)
		}
	}
	if got := s.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
}

func TestHasOutOfRangeIsFalse(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Error("out-of-universe Has should be false")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of universe did not panic")
		}
	}()
	New(4).Add(4)
}

func TestRemove(t *testing.T) {
	s := New(70)
	s.Add(5)
	s.Add(69)
	s.Remove(5)
	if s.Has(5) {
		t.Error("Remove(5) left 5 in set")
	}
	if !s.Has(69) {
		t.Error("Remove(5) removed 69")
	}
	s.Remove(69)
	if !s.Empty() {
		t.Error("set should be empty after removing all")
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(100), New(100)
	a.Add(1)
	a.Add(50)
	b.Add(50)
	b.Add(99)
	if !a.UnionWith(b) {
		t.Error("UnionWith should report change")
	}
	for _, i := range []int{1, 50, 99} {
		if !a.Has(i) {
			t.Errorf("union missing %d", i)
		}
	}
	if a.UnionWith(b) {
		t.Error("second UnionWith should report no change")
	}
}

func TestIntersectAndDifference(t *testing.T) {
	a, b := New(10), New(10)
	for _, i := range []int{1, 2, 3, 4} {
		a.Add(i)
	}
	for _, i := range []int{3, 4, 5} {
		b.Add(i)
	}
	c := a.Clone()
	c.IntersectWith(b)
	if got := c.Elems(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("intersection = %v, want [3 4]", got)
	}
	d := a.Clone()
	d.DifferenceWith(b)
	if got := d.Elems(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("difference = %v, want [1 2]", got)
	}
}

func TestSubsetEqualClone(t *testing.T) {
	a := New(66)
	a.Add(3)
	a.Add(65)
	b := a.Clone()
	if !a.Equal(b) || !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Error("clone should be equal and mutual subset")
	}
	b.Add(10)
	if a.Equal(b) {
		t.Error("Equal after divergence")
	}
	if !a.SubsetOf(b) {
		t.Error("a should be subset of grown b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	// Clone independence.
	b.Clear()
	if !a.Has(3) {
		t.Error("clearing clone affected original")
	}
}

func TestElemsOrderedAndString(t *testing.T) {
	s := New(128)
	for _, i := range []int{127, 0, 64, 63} {
		s.Add(i)
	}
	got := s.Elems()
	want := []int{0, 63, 64, 127}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	if s.String() != "{0, 63, 64, 127}" {
		t.Errorf("String = %q", s.String())
	}
	if New(5).String() != "{}" {
		t.Errorf("empty String = %q", New(5).String())
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionWith with mismatched universes did not panic")
		}
	}()
	New(4).UnionWith(New(5))
}

func TestMatrixClosureShape(t *testing.T) {
	// 0 -> 1 -> 2, plus 0 -> 2 via row-union propagation.
	m := NewMatrixRect(3, 3)
	m.Row(1).Add(0) // row i = ancestors of i
	m.Row(2).Add(1)
	m.Row(2).UnionWith(m.Row(1))
	if !m.Row(2).Has(0) || !m.Row(2).Has(1) || !m.Row(1).Has(0) {
		t.Error("closure rows wrong")
	}
	if m.Row(0).Has(2) || m.Row(0).Has(1) {
		t.Error("spurious entries")
	}
	if len(m.rows) != 3 {
		t.Errorf("rows = %d", len(m.rows))
	}
	if m.Row(2).Count() != 2 {
		t.Errorf("Row(2) = %v", m.Row(2))
	}
}

// Property: Add then Has holds; Count matches a map model.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(xs []uint16) bool {
		s := New(1 << 16)
		model := map[int]bool{}
		for _, x := range xs {
			i := int(x)
			if i%3 == 0 && model[i] {
				s.Remove(i)
				delete(model, i)
			} else {
				s.Add(i)
				model[i] = true
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for i := range model {
			if !s.Has(i) {
				return false
			}
		}
		for _, i := range s.Elems() {
			if !model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative and idempotent w.r.t. membership.
func TestQuickUnionCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		a, b := New(200), New(200)
		for i := 0; i < 40; i++ {
			a.Add(rng.Intn(200))
			b.Add(rng.Intn(200))
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			t.Fatalf("union not commutative: %v vs %v", ab, ba)
		}
		ab2 := ab.Clone()
		ab2.UnionWith(b)
		if !ab2.Equal(ab) {
			t.Fatal("union not idempotent")
		}
	}
}

func BenchmarkUnionWith(b *testing.B) {
	x, y := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkHas(b *testing.B) {
	s := New(4096)
	for i := 0; i < 4096; i += 7 {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Has(i & 4095)
	}
}

func TestWordAccess(t *testing.T) {
	s := New(130)
	if got := s.NumWords(); got != 3 {
		t.Fatalf("NumWords = %d, want 3", got)
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(129)
	if got := s.Word(0); got != 1|1<<63 {
		t.Errorf("Word(0) = %#x", got)
	}
	if got := s.Word(1); got != 1 {
		t.Errorf("Word(1) = %#x", got)
	}
	if got := s.Word(2); got != 2 {
		t.Errorf("Word(2) = %#x", got)
	}
	// Word-level view agrees with Has for every element.
	for i := 0; i < 130; i++ {
		word := s.Word(i/64) & (1 << uint(i%64))
		if (word != 0) != s.Has(i) {
			t.Fatalf("Word/Has disagree at %d", i)
		}
	}
}

func TestMatrixRect(t *testing.T) {
	m := NewMatrixRect(3, 200)
	if len(m.rows) != 3 {
		t.Fatalf("rows = %d", len(m.rows))
	}
	m.Row(0).Add(199)
	m.Row(1).Add(0)
	if !m.Row(0).Has(199) || !m.Row(1).Has(0) || m.Row(2).Has(0) {
		t.Error("rect matrix entries wrong")
	}
	// Rows of the shared (non-square) universe union with each other.
	if !m.Row(2).UnionWith(m.Row(0)) || !m.Row(2).Has(199) {
		t.Error("row union on rect matrix wrong")
	}
	if m.Row(0).Len() != 200 {
		t.Errorf("row universe = %d", m.Row(0).Len())
	}
}

func TestClearWords(t *testing.T) {
	s := New(300)
	for i := 0; i < 300; i++ {
		s.Add(i)
	}
	s.ClearWords(1, 3) // elements [64, 192)
	for i := 0; i < 300; i++ {
		want := i < 64 || i >= 192
		if s.Has(i) != want {
			t.Fatalf("Has(%d) = %v after ClearWords(1,3)", i, s.Has(i))
		}
	}
	// Clamping: out-of-range bounds are safe no-ops at the edges.
	s.ClearWords(-5, 100)
	if !s.Empty() {
		t.Error("ClearWords with clamped bounds should clear everything")
	}
	s.Add(0)
	s.ClearWords(2, 1) // empty range
	if !s.Has(0) {
		t.Error("empty-range ClearWords should not modify the set")
	}
	s.ClearWords(0, s.NumWords())
	if !s.Empty() {
		t.Error("full-range ClearWords should equal Clear")
	}
}

// Property: ClearWords(lo,hi) removes exactly the elements in
// [64·lo, 64·hi) and nothing else.
func TestQuickClearWords(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(500)
		s := New(n)
		model := map[int]bool{}
		for i := 0; i < n/2; i++ {
			x := rng.Intn(n)
			s.Add(x)
			model[x] = true
		}
		lo := rng.Intn(s.NumWords() + 1)
		hi := rng.Intn(s.NumWords() + 2)
		s.ClearWords(lo, hi)
		for i := 0; i < n; i++ {
			want := model[i] && !(i >= lo*64 && i < hi*64)
			if s.Has(i) != want {
				t.Fatalf("iter %d: Has(%d) = %v, want %v (lo=%d hi=%d)", iter, i, s.Has(i), want, lo, hi)
			}
		}
	}
}
