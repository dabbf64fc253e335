package paths

// Property-based tests (testing/quick) over randomly generated
// hierarchies: the formalism's lemmas must hold on arbitrary CHGs,
// not just the paper's figures.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// hierarchySpec is a quick.Generator producing small random CHG
// configurations.
type hierarchySpec struct {
	Classes     int
	MaxBases    int
	VirtualProb float64
	Seed        int64
}

func (hierarchySpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(hierarchySpec{
		Classes:     2 + r.Intn(9),
		MaxBases:    1 + r.Intn(3),
		VirtualProb: r.Float64(),
		Seed:        r.Int63(),
	})
}

func (s hierarchySpec) build() *chg.Graph {
	return hiergen.Random(hiergen.RandomConfig{
		Classes: s.Classes, MaxBases: s.MaxBases, VirtualProb: s.VirtualProb,
		MemberNames: 2, MemberProb: 0.5, Seed: s.Seed,
	})
}

var quickCfg = &quick.Config{MaxCount: 60}

// ≈ is an equivalence relation (reflexive, symmetric, transitive) on
// all paths to every class.
func TestQuickEquivalenceRelation(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			ps := AllPathsTo(g, chg.ClassID(c), 1<<14)
			for _, a := range ps {
				if !Equivalent(a, a) {
					return false
				}
				for _, b := range ps {
					if Equivalent(a, b) != Equivalent(b, a) {
						return false
					}
					for _, cc := range ps {
						if Equivalent(a, b) && Equivalent(b, cc) && !Equivalent(a, cc) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Dominance is a partial order on ≈-classes (Lemma 2) on arbitrary
// hierarchies.
func TestQuickLemma2(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			ps := AllPathsTo(g, chg.ClassID(c), 1<<14)
			for _, a := range ps {
				if !Dominates(a, a) {
					return false
				}
				for _, b := range ps {
					if Dominates(a, b) && Dominates(b, a) && !Equivalent(a, b) {
						return false
					}
					for _, cc := range ps {
						if Dominates(a, b) && Dominates(b, cc) && !Dominates(a, cc) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The closed-form Dominates equals the literal Definition-5
// enumeration everywhere.
func TestQuickDominatesClosedForm(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			ps := AllPathsTo(g, chg.ClassID(c), 1<<12)
			for _, a := range ps {
				for _, b := range ps {
					if Dominates(a, b) != DominatesEnum(a, b) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Lemma 1: dominance is well-defined on ≈-classes.
func TestQuickLemma1(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			ps := AllPathsTo(g, chg.ClassID(c), 1<<12)
			for _, a := range ps {
				for _, a2 := range ps {
					if !Equivalent(a, a2) {
						continue
					}
					for _, b := range ps {
						if Dominates(a, b) != Dominates(a2, b) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Lemma 3: extension distributes over dominance along every edge.
func TestQuickLemma3(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			ps := AllPathsTo(g, chg.ClassID(c), 1<<12)
			for _, d := range g.DirectDerived(chg.ClassID(c)) {
				for _, a := range ps {
					for _, b := range ps {
						if Dominates(a, b) != Dominates(a.ExtendEdge(d), b.ExtendEdge(d)) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// leastVirtual of an extended path equals the ∘ abstraction
// (Definition 15's soundness), on arbitrary hierarchies.
func TestQuickExtendAbstraction(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			for _, p := range AllPathsTo(g, chg.ClassID(c), 1<<12) {
				for _, d := range g.DirectDerived(p.Mdc()) {
					if Extend(g, p.LeastVirtual(), p.Mdc(), d) != p.ExtendEdge(d).LeastVirtual() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fixed is idempotent and a prefix; ldc/mdc behave.
func TestQuickFixedInvariants(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			for _, p := range AllPathsTo(g, chg.ClassID(c), 1<<12) {
				fx := p.Fixed()
				if !fx.IsPrefixOf(p) {
					return false
				}
				if !fx.Fixed().Equal(fx) {
					return false
				}
				if fx.Ldc() != p.Ldc() {
					return false
				}
				if fx.IsVPath() {
					return false
				}
				// leastVirtual is Ω iff the path is not a v-path.
				if (p.LeastVirtual() == chg.Omega) == p.IsVPath() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Defns(C, m) groups DefnsPath(C, m) into ≈-classes in order of first
// appearance (Definition 7), with every class's paths in enumeration
// order — whether it filters C's subobjects or groups the definition
// paths directly.
func TestQuickDefnsGroupsDefnsPath(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				var want []EquivClass
				for _, p := range DefnsPath(g, chg.ClassID(c), chg.MemberID(m), 1<<14) {
					i := 0
					for i < len(want) && !Equivalent(want[i].Rep, p) {
						i++
					}
					if i == len(want) {
						want = append(want, EquivClass{Rep: p})
					}
					want[i].Members = append(want[i].Members, p)
				}
				got := Defns(g, chg.ClassID(c), chg.MemberID(m), 1<<14)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Members, want[i].Members) || !got[i].Rep.Equal(want[i].Rep) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Maximal keeps exactly the elements no other ≈-class dominates
// (Definition 16), on every class's full subobject set and on Defns.
func TestQuickMaximalMatchesDefinition(t *testing.T) {
	f := func(s hierarchySpec) bool {
		g := s.build()
		for c := 0; c < g.NumClasses(); c++ {
			sets := [][]EquivClass{Subobjects(g, chg.ClassID(c), 1<<14)}
			for m := 0; m < g.NumMemberNames(); m++ {
				sets = append(sets, Defns(g, chg.ClassID(c), chg.MemberID(m), 1<<14))
			}
			for _, a := range sets {
				var want []EquivClass
				for _, u := range a {
					dominated := false
					for _, v := range a {
						if !Equivalent(u.Rep, v.Rep) && Dominates(v.Rep, u.Rep) {
							dominated = true
						}
					}
					if !dominated {
						want = append(want, u)
					}
				}
				if !reflect.DeepEqual(Maximal(a), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
