package core

// testing/quick property layer: the algorithm's invariants on
// arbitrary random hierarchies, complementing the figure-based golden
// tests and the explicit oracle loops in core_test.go.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/paths"
)

type spec struct {
	Classes     int
	MaxBases    int
	VirtualProb float64
	MemberProb  float64
	StaticProb  float64
	Seed        int64
}

func (spec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(spec{
		Classes:     2 + r.Intn(12),
		MaxBases:    1 + r.Intn(3),
		VirtualProb: r.Float64(),
		MemberProb:  0.2 + 0.5*r.Float64(),
		StaticProb:  r.Float64(),
		Seed:        r.Int63(),
	})
}

func (s spec) build() *chg.Graph {
	return hiergen.Random(hiergen.RandomConfig{
		Classes: s.Classes, MaxBases: s.MaxBases, VirtualProb: s.VirtualProb,
		MemberNames: 2, MemberProb: s.MemberProb, StaticProb: s.StaticProb,
		Seed: s.Seed,
	})
}

// Core agreement property: the algorithm equals the Definition-9
// oracle at every (class, member).
func TestQuickAgainstOracle(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				want := paths.Lookup(g, chg.ClassID(c), chg.MemberID(m), 1<<16)
				got := a.Lookup(chg.ClassID(c), chg.MemberID(m))
				switch {
				case len(want.Defns) == 0:
					if got.Kind() != Undefined {
						return false
					}
				case want.Ambiguous:
					if got.Kind() != BlueKind {
						return false
					}
				default:
					if got.Kind() != RedKind || got.Class() != want.Subobject.Ldc() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Red results satisfy Definition 12's consequence: the winning
// definition's (L, V) abstraction dominates the abstraction of every
// definition path (checked semantically via path dominance).
func TestQuickRedResultsDominateAllDefinitions(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g, WithTrackPaths())
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				r := a.Lookup(chg.ClassID(c), chg.MemberID(m))
				if r.Kind() != RedKind {
					continue
				}
				p, err := paths.New(g, r.Path()...)
				if err != nil {
					return false
				}
				for _, q := range paths.DefnsPath(g, chg.ClassID(c), chg.MemberID(m), 1<<16) {
					if !paths.Dominates(p, q) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Monotonicity: declaring m directly in class c forces lookup(c, m)
// to resolve to c, whatever the hierarchy above does.
func TestQuickOwnDeclarationWins(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				if !g.Declares(chg.ClassID(c), chg.MemberID(m)) {
					continue
				}
				r := a.Lookup(chg.ClassID(c), chg.MemberID(m))
				if r.Kind() != RedKind || r.Class() != chg.ClassID(c) || r.Def().V != chg.Omega {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Blue sets are sorted, deduplicated, and at least two entries wide —
// an ambiguity needs two sides.
func TestQuickBlueSetWellFormed(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				r := a.Lookup(chg.ClassID(c), chg.MemberID(m))
				if r.Kind() != BlueKind {
					continue
				}
				if len(r.Blue()) < 1 {
					return false
				}
				for i := 1; i < len(r.Blue()); i++ {
					prev, cur := r.Blue()[i-1], r.Blue()[i]
					if cur.V < prev.V || (cur.V == prev.V && cur.L <= prev.L) {
						return false
					}
				}
				// Blue abstractions are class ids or Ω.
				for _, d := range r.Blue() {
					if d.V != chg.Omega && !g.Valid(d.V) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Undefined results coincide exactly with "no base (or self) declares
// the member". Each class's bases come from a test-local DFS up the
// direct bases, taken once per class.
func TestQuickUndefinedIffNoDefinition(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			var bases []chg.ClassID
			seen := map[chg.ClassID]bool{}
			for stack := []chg.ClassID{chg.ClassID(c)}; len(stack) > 0; {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range g.DirectBases(x) {
					if !seen[e.Base] {
						seen[e.Base] = true
						bases = append(bases, e.Base)
						stack = append(stack, e.Base)
					}
				}
			}
			for m := 0; m < g.NumMemberNames(); m++ {
				declared := g.Declares(chg.ClassID(c), chg.MemberID(m))
				for _, x := range bases {
					declared = declared || g.Declares(x, chg.MemberID(m))
				}
				got := a.Lookup(chg.ClassID(c), chg.MemberID(m))
				if (got.Kind() == Undefined) == declared {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The single-inheritance fragment of any hierarchy (classes whose
// ancestor subgraph is a chain) is never ambiguous.
func TestQuickSingleInheritanceFragmentUnambiguous(t *testing.T) {
	f := func(s spec) bool {
		g := s.build()
		a := New(g)
		for c := 0; c < g.NumClasses(); c++ {
			if !chainAncestry(g, chg.ClassID(c)) {
				continue
			}
			for m := 0; m < g.NumMemberNames(); m++ {
				if a.Lookup(chg.ClassID(c), chg.MemberID(m)).Kind() == BlueKind {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func chainAncestry(g *chg.Graph, c chg.ClassID) bool {
	for {
		bases := g.DirectBases(c)
		switch len(bases) {
		case 0:
			return true
		case 1:
			c = bases[0].Base
		default:
			return false
		}
	}
}
