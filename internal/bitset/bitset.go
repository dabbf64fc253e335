// Package bitset provides a dense bit-set over small integer universes.
//
// Sets back the class-hierarchy relations that are read whole: the
// base-class closure of internal/chg and its transpose, built on first
// use, the invalidation cones of internal/incremental, and the
// streaming table build's member matrices. The Lemma-4 test "is class
// V a virtual base of class L?" is not one of them: where Section 5
// suggests a boolean matrix built by a transitive-closure-like
// algorithm, internal/chg binary-searches sorted per-class lists, which
// stay a few entries long where the matrix costs |N|²/8 bytes.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bit set. The zero value is an empty set over
// an empty universe; use New to create a set able to hold n elements.
type Set struct {
	words []uint64
	n     int // universe size
}

// New returns an empty set over the universe {0, …, n-1}.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size " + strconv.Itoa(n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// Grow extends the universe to {0, …, n-1}, keeping every element.
// Shrinking is not supported: a smaller n is ignored. Growing in place
// lets caller-owned scratch (the visited set chg.Graph.EachDescendant
// takes) be sized by its first use and reused after.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	if need > len(s.words) {
		words := make([]uint64, need)
		copy(words, s.words)
		s.words = words
	}
	s.n = n
}

// NumWords returns the number of 64-bit words backing the set:
// ⌈Len()/64⌉.
func (s *Set) NumWords() int { return len(s.words) }

// Word returns the i'th backing word: bit j of Word(i) is element
// 64·i+j. Word-level access is what lets callers batch 64 universe
// elements per probe (the lookup table's member-block masks).
func (s *Set) Word(i int) uint64 { return s.words[i] }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s and reports whether s changed.
// The two sets must share a universe size.
func (s *Set) UnionWith(t *Set) bool {
	s.sameUniverse(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// ClearWords zeroes the backing words in [lo, hi) — elements
// [64·lo, 64·hi) leave the set. It is the range form of Clear used by
// reusable chunk-local matrices (internal/core's streaming builder)
// and by parallel cone zeroing, where each worker owns a disjoint word
// range of one set. The range is clamped to the set's words, so
// callers may pass hi = NumWords() of a conservatively sized peer.
func (s *Set) ClearWords(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.words) {
		hi = len(s.words)
	}
	for i := lo; i < hi; i++ {
		s.words[i] = 0
	}
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DifferenceWith removes from s every element of t.
func (s *Set) DifferenceWith(t *Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t hold exactly the same elements.
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

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: element " + strconv.Itoa(i) + " out of universe [0," + strconv.Itoa(s.n) + ")")
	}
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic("bitset: universe mismatch " + strconv.Itoa(s.n) + " != " + strconv.Itoa(t.n))
	}
}

// Matrix is a boolean matrix stored as one Set per row. It backs the
// reflexive-transitive closures over the class hierarchy graph
// (square, classes × classes) and the member-universe matrix of the
// eager table build (rectangular, classes × member names).
type Matrix struct {
	rows []*Set
}

// NewMatrix returns an n×n all-false matrix.
func NewMatrix(n int) *Matrix {
	return NewMatrixRect(n, n)
}

// NewMatrixRect returns a rows×cols all-false matrix: `rows` sets,
// each over the universe {0, …, cols-1}.
func NewMatrixRect(rows, cols int) *Matrix {
	m := &Matrix{rows: make([]*Set, rows)}
	for i := range m.rows {
		m.rows[i] = New(cols)
	}
	return m
}

// Dim returns n for an n×n matrix.
func (m *Matrix) Dim() int { return len(m.rows) }

// Set sets entry (i, j) to true.
func (m *Matrix) Set(i, j int) { m.rows[i].Add(j) }

// Has reports entry (i, j).
func (m *Matrix) Has(i, j int) bool { return m.rows[i].Has(j) }

// Row returns row i. The returned set is shared, not a copy.
func (m *Matrix) Row(i int) *Set { return m.rows[i] }

// OrRow ors row src into row dst and reports whether dst changed.
func (m *Matrix) OrRow(dst, src int) bool { return m.rows[dst].UnionWith(m.rows[src]) }
