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

// rowResolver is a test-local ClassResolver that answers rows from a
// dominance table, except on the classes in failed, where it fails
// every name, as C3 does on a failed merge and gxx over its subobject
// limit.
type rowResolver struct {
	*Kernel
	table  *Table
	failed map[chg.ClassID]bool
}

func (r rowResolver) ResolveClass(c chg.ClassID, ms []chg.MemberID, out []Cell) {
	for i, m := range ms {
		if r.failed[c] {
			out[i] = r.Pool().Fail(c).Cell()
		} else {
			out[i] = r.table.Lookup(c, m).Cell()
		}
	}
}

// TestFillRunCountsPublishedWords pins FillRun's count, which the
// engine adds to a run's filled total (CarryStats.Carried reads it): a
// fill reports exactly the words it published, and a fill of a cell
// that is already filled, by itself or as a base of an earlier fill,
// reports 0. Classes are filled in reverse topological order, so the
// first fill of each member recurses through the ancestors of a most
// derived class. A resolver's cell reads no other cell, except where
// the resolver fails a class that does not declare the member: the
// fill then asks the direct bases whether the member is one at all,
// and publishes Undefined where it is not.
func TestFillRunCountsPublishedWords(t *testing.T) {
	g := hiergen.Realistic(8, 3)
	k := NewKernel(g)
	table := k.BuildTable()
	topo := g.Topo()
	failed := map[chg.ClassID]bool{}
	for c := 0; c < g.NumClasses(); c += 3 {
		failed[chg.ClassID(c)] = true
	}
	failedNonMembers := 0
	for _, tc := range []struct {
		name     string
		sem      Semantics
		recurses bool
		want     func(chg.ClassID, chg.MemberID) Result
	}{
		{"kernel", k, true, table.Lookup},
		{"resolver", rowResolver{k, table, nil}, false, table.Lookup},
		{"failing resolver", rowResolver{k, table, failed}, true, func(c chg.ClassID, m chg.MemberID) Result {
			r := table.Lookup(c, m)
			if !failed[c] {
				return r
			}
			if r.Kind() == Undefined {
				failedNonMembers++
				return r
			}
			return k.Pool().Fail(c)
		}},
	} {
		recursed := false
		for m := chg.MemberID(0); int(m) < g.NumMemberNames(); m++ {
			words := make([]uint64, g.NumClasses())
			filled := 0
			for i := len(topo) - 1; i >= 0; i-- {
				c := topo[i]
				r, n := FillRun(tc.sem, words, c, m)
				if want := tc.want(c, m); !r.Equal(want) {
					t.Fatalf("%s: fill of (%s,%s) = %v, want %v", tc.name, g.Name(c), g.MemberName(m), r, want)
				}
				now := 0
				for _, w := range words {
					if w != 0 {
						now++
					}
				}
				if n != now-filled {
					t.Fatalf("%s: fill of (%s,%s) reported %d words, published %d", tc.name, g.Name(c), g.MemberName(m), n, now-filled)
				}
				recursed = recursed || n > 1
				filled = now
				if _, again := FillRun(tc.sem, words, c, m); again != 0 {
					t.Fatalf("%s: second fill of (%s,%s) reported %d words, want 0", tc.name, g.Name(c), g.MemberName(m), again)
				}
			}
			if filled != g.NumClasses() {
				t.Fatalf("%s: member %s: %d of %d words filled", tc.name, g.MemberName(m), filled, g.NumClasses())
			}
		}
		if recursed != tc.recurses {
			t.Fatalf("%s: some fill published more than its own word: %v, want %v", tc.name, recursed, tc.recurses)
		}
	}
	if failedNonMembers == 0 {
		t.Fatal("no failed class was asked about a name it does not see")
	}
}
