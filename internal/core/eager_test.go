package core

import (
	"math/rand"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

func TestTableMembersSets(t *testing.T) {
	g := hiergen.Figure3()
	table := New(g).BuildTable()
	names := func(c string) map[string]bool {
		out := map[string]bool{}
		for _, m := range table.Members(g.MustID(c)) {
			out[g.MemberName(m)] = true
		}
		return out
	}
	// H inherits foo (from A/G) and bar (from D/E/G); declares nothing.
	h := names("H")
	if !h["foo"] || !h["bar"] || len(h) != 2 {
		t.Errorf("Members[H] = %v", h)
	}
	// A declares only foo.
	a := names("A")
	if !a["foo"] || len(a) != 1 {
		t.Errorf("Members[A] = %v", a)
	}
	// E declares only bar.
	e := names("E")
	if !e["bar"] || len(e) != 1 {
		t.Errorf("Members[E] = %v", e)
	}
	// F = {foo via D, bar via D and E}.
	f := names("F")
	if !f["foo"] || !f["bar"] || len(f) != 2 {
		t.Errorf("Members[F] = %v", f)
	}
}

func TestTableEntriesAndAmbiguityCount(t *testing.T) {
	g := hiergen.Figure3()
	table := New(g).BuildTable()
	if table.Entries() == 0 {
		t.Fatal("table should have entries")
	}
	// Ambiguous entries in Figure 3: (D,foo), (F,foo), (F,bar), (H,bar).
	if got := table.CountAmbiguous(); got != 4 {
		t.Errorf("CountAmbiguous = %d, want 4", got)
	}
	if table.Graph() != g {
		t.Error("Graph accessor wrong")
	}
}

func TestTableLookupOutsideMembers(t *testing.T) {
	g := hiergen.Figure3()
	table := New(g).BuildTable()
	// E has no foo.
	if r := table.LookupByName("E", "foo"); r.Kind() != Undefined {
		t.Errorf("table lookup(E, foo) = %s, want undefined", r.Format(g))
	}
	if r := table.Lookup(chg.ClassID(-3), 0); r.Kind() != Undefined {
		t.Error("invalid class id should be undefined")
	}
	if r := table.LookupByName("Zed", "foo"); r.Kind() != Undefined {
		t.Error("unknown class name should be undefined")
	}
	if r := table.LookupByName("E", "zed"); r.Kind() != Undefined {
		t.Error("unknown member name should be undefined")
	}
}

// The lazy memo must agree with the eager table on every cell, payload
// included, under each option set. hiergen.Random derives class i only
// from classes j < i, so querying each member's classes in descending
// id order makes its first query recurse from the last class towards
// the roots through scratch frames at depth; later queries then hit or
// extend the run that fill left.
func TestEagerMatchesLazyOnRandom(t *testing.T) {
	optSets := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"static", []Option{WithStaticRule()}},
		{"paths", []Option{WithTrackPaths()}},
		{"static+paths", []Option{WithStaticRule(), WithTrackPaths()}},
	}
	for _, set := range optSets {
		t.Run(set.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			for i := 0; i < 50; i++ {
				g := hiergen.Random(hiergen.RandomConfig{
					Classes: 4 + rng.Intn(25), MaxBases: 3, VirtualProb: 0.4,
					MemberNames: 4, MemberProb: 0.4, StaticProb: 0.3, Seed: rng.Int63(),
				})
				lazy := New(g, set.opts...)
				table := New(g, set.opts...).BuildTable()
				for m := 0; m < g.NumMemberNames(); m++ {
					for c := g.NumClasses() - 1; c >= 0; c-- {
						lr := lazy.Lookup(chg.ClassID(c), chg.MemberID(m))
						er := table.Lookup(chg.ClassID(c), chg.MemberID(m))
						if !lr.Equal(er) {
							t.Fatalf("iter %d: lazy %v != eager %v at (%s,%s)",
								i, lr, er, g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)))
						}
					}
				}
			}
		})
	}
}

// memberUniverse (the shared Members[C] construction) must agree with
// the recursive definition of Figure 8 lines [6]–[9]: m ∈ Members[C]
// iff C declares m or some direct base has m ∈ Members[X].
func TestMemberUniverseMatchesRecursiveDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 20; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 3 + rng.Intn(20), MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 5, MemberProb: 0.3, Seed: rng.Int63(),
		})
		members, mm := memberUniverse(g), MemberMatrix(g)
		var inMembers func(c chg.ClassID, m chg.MemberID) bool
		inMembers = func(c chg.ClassID, m chg.MemberID) bool {
			if g.Declares(c, m) {
				return true
			}
			for _, e := range g.DirectBases(c) {
				if inMembers(e.Base, m) {
					return true
				}
			}
			return false
		}
		for c := 0; c < g.NumClasses(); c++ {
			want := []chg.MemberID{}
			for m := 0; m < g.NumMemberNames(); m++ {
				has := inMembers(chg.ClassID(c), chg.MemberID(m))
				if mm.Row(c).Has(m) != has {
					t.Fatalf("iter %d: matrix bit (%d,%d) = %v, want %v", i, c, m, mm.Row(c).Has(m), has)
				}
				if has {
					want = append(want, chg.MemberID(m))
				}
			}
			got := members[c]
			if len(got) != len(want) {
				t.Fatalf("iter %d: Members[%d] = %v, want %v", i, c, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("iter %d: Members[%d] = %v, want %v", i, c, got, want)
				}
			}
		}
	}
}

// Single inheritance: lookup is never ambiguous and finds the nearest
// declaring ancestor — the "essentially like name lookup in the
// presence of nested scopes" case of Section 1.
func TestSingleInheritanceNeverAmbiguous(t *testing.T) {
	g := hiergen.Chain(20, true)
	table := New(g).BuildTable()
	m := g.MustMemberID("m")
	if table.CountAmbiguous() != 0 {
		t.Fatal("single inheritance must have no ambiguity")
	}
	// Above the midpoint override, lookup resolves to C10; below, to C0.
	r := table.Lookup(hiergen.ChainTop(g, 20), m)
	if !r.Found() || g.Name(r.Class()) != "C10" {
		t.Errorf("chain top resolves to %s", r.Format(g))
	}
	r = table.Lookup(g.MustID("C9"), m)
	if !r.Found() || g.Name(r.Class()) != "C0" {
		t.Errorf("below override resolves to %s", r.Format(g))
	}
}

func TestWideMIConflicts(t *testing.T) {
	g := hiergen.WideMI(8, true)
	table := New(g).BuildTable()
	r := table.LookupByName("Top", "m")
	if !r.Ambiguous() {
		t.Fatalf("WideMI conflicting lookup = %s", r.Format(g))
	}
	g2 := hiergen.WideMI(8, false)
	r2 := New(g2).BuildTable().LookupByName("Top", "m")
	if !r2.Found() || g2.Name(r2.Class()) != "B0" {
		t.Errorf("WideMI single declaration = %s", r2.Format(g2))
	}
}

func TestAmbiguousLadderAllAmbiguous(t *testing.T) {
	g := hiergen.AmbiguousLadder(6, 2)
	table := New(g).BuildTable()
	m := g.MustMemberID("m")
	for i := 0; i < 6; i++ {
		r := table.LookupByName("R"+string(rune('0'+i)), "m")
		if !r.Ambiguous() {
			t.Errorf("R%d should be ambiguous, got %s", i, r.Format(g))
		}
		// Each rung's blue set carries all 4 distinct virtual roots.
		if len(r.Blue()) != 4 {
			t.Errorf("R%d blue set size = %d, want 4", i, len(r.Blue()))
		}
	}
	_ = m
}

func TestRealisticMostlyUnambiguous(t *testing.T) {
	g := hiergen.Realistic(4, 3)
	table := New(g).BuildTable()
	if amb := table.CountAmbiguous(); amb != 0 {
		t.Errorf("Realistic hierarchy has %d ambiguous entries, want 0", amb)
	}
	top := hiergen.RealisticTop(g, 4, 3)
	r := table.Lookup(top, g.MustMemberID("rdstate"))
	if !r.Found() || g.Name(r.Class()) != "ios_base" {
		t.Errorf("rdstate resolves to %s", r.Format(g))
	}
	r = table.Lookup(top, g.MustMemberID("flags"))
	if !r.Found() || !strings.HasPrefix(g.Name(r.Class()), "iostream") {
		t.Errorf("flags should resolve to the latest override, got %s", r.Format(g))
	}
}
