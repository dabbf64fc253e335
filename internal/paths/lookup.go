package paths

import (
	"cpplookup/internal/chg"
)

// MostDominant returns the unique element of A that dominates every
// element of A (Definition 8), if one exists. By Lemma 1 dominance is
// well-defined on ≈-classes via any representatives.
func MostDominant(a []EquivClass) (EquivClass, bool) {
	for _, u := range a {
		all := true
		for _, v := range a {
			if !Dominates(u.Rep, v.Rep) {
				all = false
				break
			}
		}
		if all {
			return u, true
		}
	}
	return EquivClass{}, false
}

// MostDominantPath returns some most-dominant element of a path set
// (Definition 11): an α ∈ A with α dominating every β ∈ A. This is
// what the paper's algorithm returns — an arbitrary element of the
// most-dominant equivalence class.
func MostDominantPath(a []Path) (Path, bool) {
	for _, u := range a {
		all := true
		for _, v := range a {
			if !Dominates(u, v) {
				all = false
				break
			}
		}
		if all {
			return u, true
		}
	}
	return Path{}, false
}

// Maximal returns maximal(A) (Definition 16): the elements not
// strictly dominated by any other element. Each element's fixed part
// is computed once, not once per pair.
func Maximal(a []EquivClass) []EquivClass {
	fixed := make([]Path, len(a))
	for i, u := range a {
		fixed[i] = u.Rep.Fixed()
	}
	var out []EquivClass
	for i, u := range a {
		dominated := false
		for j, v := range a {
			// Equal mdcs and fixed parts make v ≈ u (Definition 3):
			// the same subobject, which does not strictly dominate u.
			if i == j || v.Mdc() != u.Mdc() || fixed[j].Equal(fixed[i]) {
				continue
			}
			if dominatesFixed(v.Rep, fixed[j], fixed[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, u)
		}
	}
	return out
}

// Result is the outcome of the reference lookup.
type Result struct {
	// Ambiguous is true when Defns(C, m) has no most-dominant element
	// (the paper's lookup(C,m) = ⊥).
	Ambiguous bool
	// Subobject is the resolved subobject when unambiguous. For the
	// static-member rule, it is a representative of the maximal set.
	Subobject EquivClass
	// Defns is the full Defns(C, m) set, for diagnostics and tests.
	Defns []EquivClass
	// MaximalSet is maximal(Defns); for an unambiguous non-static
	// lookup it is the singleton {Subobject}.
	MaximalSet []EquivClass
}

// Lookup is the reference implementation of Definition 9:
// lookup(C, m) = most-dominant(Defns(C, m)). It enumerates paths and
// is exponential in the worst case; internal/core computes the same
// answer in polynomial time.
func Lookup(g *chg.Graph, c chg.ClassID, m chg.MemberID, limit int) Result {
	defns := Defns(g, c, m, limit)
	res := Result{Defns: defns, MaximalSet: Maximal(defns)}
	if md, ok := MostDominant(defns); ok {
		res.Subobject = md
		return res
	}
	res.Ambiguous = true
	return res
}

// LookupStatic is the reference implementation of Definition 17, the
// variant extended for static members (and type names / enumerators,
// which Section 6 treats identically): the lookup also succeeds when
// every maximal subobject has the same least derived class and the
// member is static in that class — all those subobjects share one
// static member.
func LookupStatic(g *chg.Graph, c chg.ClassID, m chg.MemberID, limit int) Result {
	defns := Defns(g, c, m, limit)
	res := Result{Defns: defns, MaximalSet: Maximal(defns)}
	if len(res.MaximalSet) == 1 {
		res.Subobject = res.MaximalSet[0]
		return res
	}
	if len(res.MaximalSet) > 1 {
		ldc := res.MaximalSet[0].Ldc()
		same := true
		for _, u := range res.MaximalSet[1:] {
			if u.Ldc() != ldc {
				same = false
				break
			}
		}
		if same {
			if mem, ok := g.DeclaredMember(ldc, m); ok && mem.StaticForLookup() {
				res.Subobject = res.MaximalSet[0]
				return res
			}
		}
	}
	res.Ambiguous = true
	return res
}
