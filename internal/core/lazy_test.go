package core

import (
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestAnalyzerAllocsPerMember gates the Analyzer's memo: a fresh
// Analyzer answering every (class, member) pair allocates one run per
// member name plus a small constant (the run table, pooled scratch,
// payload-pool growth), never an object per miss or per hit.
func TestAnalyzerAllocsPerMember(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts, so pooled scratch reallocates")
	}
	g := hiergen.Realistic(8, 3)
	maxAllocs := g.NumMemberNames() + 16
	avg := testing.AllocsPerRun(20, func() {
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				a.Lookup(chg.ClassID(c), chg.MemberID(m))
			}
		}
	})
	if avg > float64(maxAllocs) {
		t.Fatalf("a fresh Analyzer answering %d cells allocated %.0f objects, want at most %d",
			g.NumClasses()*g.NumMemberNames(), avg, maxAllocs)
	}
}

// viaResolve hides a kernel behind the Semantics interface, so that
// FillRun takes the Resolve branch, which recurses through get like
// the kernel branch does.
type viaResolve struct{ *Kernel }

// TestFillRunCountsPublishedWords pins FillRun's count, which the
// engine adds to a run's filled total (CarryStats.Carried reads it): a
// fill reports exactly the words it published, and a fill of a cell
// that is already filled, by itself or as a base of an earlier fill,
// reports 0. Classes are filled in reverse topological order, so the
// first fill of each member recurses through the ancestors of a most
// derived class.
func TestFillRunCountsPublishedWords(t *testing.T) {
	g := hiergen.Realistic(8, 3)
	k := NewKernel(g)
	table := k.BuildTable()
	topo := g.Topo()
	for _, sem := range []Semantics{k, viaResolve{k}} {
		recursed := false
		for m := chg.MemberID(0); int(m) < g.NumMemberNames(); m++ {
			words := make([]uint64, g.NumClasses())
			filled := 0
			for i := len(topo) - 1; i >= 0; i-- {
				c := topo[i]
				r, n := FillRun(sem, words, c, m)
				if !r.Equal(table.Lookup(c, m)) {
					t.Fatalf("%T: fill of (%s,%s) = %v, table %v", sem, g.Name(c), g.MemberName(m), r, table.Lookup(c, m))
				}
				now := 0
				for _, w := range words {
					if w != 0 {
						now++
					}
				}
				if n != now-filled {
					t.Fatalf("%T: fill of (%s,%s) reported %d words, published %d", sem, g.Name(c), g.MemberName(m), n, now-filled)
				}
				recursed = recursed || n > 1
				filled = now
				if _, again := FillRun(sem, words, c, m); again != 0 {
					t.Fatalf("%T: second fill of (%s,%s) reported %d words, want 0", sem, g.Name(c), g.MemberName(m), again)
				}
			}
			if filled != g.NumClasses() {
				t.Fatalf("%T: member %s: %d of %d words filled", sem, g.MemberName(m), filled, g.NumClasses())
			}
		}
		if !recursed {
			t.Fatalf("%T: no fill published more than its own word", sem)
		}
	}
}
