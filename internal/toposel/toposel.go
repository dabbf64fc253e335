// Package toposel implements the topological-number shortcut of
// Section 7.2: if a lookup is assumed to be unambiguous (as the Attali
// et al. Eiffel algorithm assumes of its statically well-typed
// inputs), it can be answered by picking, among the classes that
// declare the member and are bases of (or equal to) the context
// class, the one with the maximum topological number.
//
// The paper proves nothing for ambiguous inputs — and indeed on them
// this lookup silently returns one of the conflicting members instead
// of reporting the ambiguity. The E10 experiment quantifies that
// failure mode; the package exists as the "much of the complexity of
// member lookup in C++ is in identifying ambiguous lookups" baseline.
package toposel

import (
	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// Lookup returns the class whose member m a (presumed unambiguous)
// lookup in context c resolves to, or false when no base of c (nor c
// itself) declares m. Cost: one walk up c's bases, O(bases of c +
// their direct edges), plus a visited set of |N| bits.
func Lookup(g *chg.Graph, c chg.ClassID, m chg.MemberID) (chg.ClassID, bool) {
	if !g.Valid(c) || m < 0 || int(m) >= g.NumMemberNames() {
		return 0, false
	}
	if g.Declares(c, m) {
		return c, true
	}
	best := chg.Omega
	bestPos := -1
	g.EachAncestor(c, new(bitset.Set), nil, func(x chg.ClassID) {
		if g.Declares(x, m) && g.TopoPos(x) > bestPos {
			best = x
			bestPos = g.TopoPos(x)
		}
	})
	if best == chg.Omega {
		return 0, false
	}
	return best, true
}
