package subobject

import (
	"math/big"

	"cpplookup/internal/chg"
)

// Count returns the exact number of subobjects of a complete object of
// class c — the size the subobject graph *would* have — without
// building it, so the exponential families of Section 7.1 can be
// tabulated far past the point where construction is feasible.
//
// Derivation: a subobject is a ≈-class, canonically a pair (p, c)
// where p is a purely non-virtual path (the shared fixed part) such
// that either p already ends at c, or some path continues from mdc(p)
// to c beginning with a virtual edge (i.e. mdc(p) is a virtual base of
// c). Hence with NV(x) = number of non-virtual paths ending at x:
//
//	Count(c) = NV(c) + Σ_{x virtual base of c} NV(x)
//
// NV satisfies the topological recurrence NV(x) = 1 + Σ NV(b) over
// non-virtual edges b→x, computed here in big.Int.
func Count(g *chg.Graph, c chg.ClassID) *big.Int {
	nv := nonVirtualPathCounts(g)
	total := new(big.Int).Set(nv[c])
	g.VirtualBases(c).ForEach(func(x int) {
		total.Add(total, nv[x])
	})
	return total
}

// CountDefns returns |Defns(c, m)| — the number of distinct
// subobjects of a c object whose class declares m — again without
// enumeration: the same recurrence restricted to fixed paths whose
// source declares m.
func CountDefns(g *chg.Graph, c chg.ClassID, m chg.MemberID) *big.Int {
	nvm := make([]*big.Int, g.NumClasses())
	for _, x := range g.Topo() {
		t := new(big.Int)
		if g.Declares(x, m) {
			t.SetInt64(1)
		}
		for _, e := range g.DirectBases(x) {
			if e.Kind == chg.NonVirtual {
				t.Add(t, nvm[e.Base])
			}
		}
		nvm[x] = t
	}
	total := new(big.Int).Set(nvm[c])
	g.VirtualBases(c).ForEach(func(x int) {
		total.Add(total, nvm[x])
	})
	return total
}

// PathCounts returns, for every class c, the number of CHG paths
// ending at c — the subobject count in the absence of virtual
// inheritance, and the size of the path enumeration in general — from
// one topological pass. Counts saturate at limit+1: any count above
// limit reads as limit+1, so a "> limit" guard stays exact without
// big integers however exponential the hierarchy. limit must be below
// math.MaxInt.
func PathCounts(g *chg.Graph, limit int) []int {
	return cappedPathCounts(g, limit, false)
}

// Counts returns Count(g, c) for every class c, saturating at limit+1
// as PathCounts does: the non-virtual path counts come from one
// topological pass shared by every class.
func Counts(g *chg.Graph, limit int) []int {
	nv := cappedPathCounts(g, limit, true)
	out := make([]int, len(nv))
	for c := range out {
		n := nv[c]
		g.VirtualBases(chg.ClassID(c)).ForEach(func(x int) {
			n = capAdd(n, nv[x], limit)
		})
		out[c] = n
	}
	return out
}

// cappedPathCounts runs the recurrence n(x) = 1 + Σ n(b) over the
// direct bases b of x — only the non-virtual ones when nonVirtual is
// set — in topological order, saturating at limit+1.
func cappedPathCounts(g *chg.Graph, limit int, nonVirtual bool) []int {
	n := make([]int, g.NumClasses())
	for _, x := range g.Topo() {
		t := 1
		for _, e := range g.DirectBases(x) {
			if !nonVirtual || e.Kind == chg.NonVirtual {
				t = capAdd(t, n[e.Base], limit)
			}
		}
		n[x] = t
	}
	return n
}

// capAdd returns a+b for counts a, b ≤ limit+1, saturating at limit+1
// without overflowing.
func capAdd(a, b, limit int) int {
	if a > limit-b {
		return limit + 1
	}
	return a + b
}

func nonVirtualPathCounts(g *chg.Graph) []*big.Int {
	nv := make([]*big.Int, g.NumClasses())
	for _, x := range g.Topo() {
		t := big.NewInt(1)
		for _, e := range g.DirectBases(x) {
			if e.Kind == chg.NonVirtual {
				t.Add(t, nv[e.Base])
			}
		}
		nv[x] = t
	}
	return nv
}
