package paths

import (
	"fmt"
	"sort"

	"cpplookup/internal/chg"
)

// DefaultLimit bounds path enumeration. The subobject graph can be
// exponential in the CHG (Section 7.1), so the oracle refuses to
// enumerate beyond this many paths unless the caller raises the limit.
const DefaultLimit = 1 << 20

// AllPathsBetween returns every CHG path from `from` to `to`,
// including the zero-edge path when from == to. Paths are returned in
// a deterministic order (DFS over base lists). limit caps the number
// of paths (0 means DefaultLimit); the function panics if exceeded —
// enumeration is test/oracle machinery, not production surface.
func AllPathsBetween(g *chg.Graph, from, to chg.ClassID, limit int) []Path {
	if limit <= 0 {
		limit = DefaultLimit
	}
	var out []Path
	// Walk backwards from `to` through direct bases; build node lists
	// in reverse and flip at emission.
	rev := []chg.ClassID{to}
	var walk func(cur chg.ClassID)
	walk = func(cur chg.ClassID) {
		if cur == from {
			n := len(rev)
			nodes := make([]chg.ClassID, n)
			for i, c := range rev {
				nodes[n-1-i] = c
			}
			out = append(out, Path{g: g, nodes: nodes})
			if len(out) > limit {
				panic(fmt.Sprintf("paths: more than %d paths from %s to %s", limit, g.Name(from), g.Name(to)))
			}
			// fall through: `from` may also be an indirect base of itself
			// only via a cycle, which Build rejects, so no recursion needed
			// beyond this match — but `from` can still have bases that are
			// NOT `from`, which cannot lead back (acyclic). Stop here.
			return
		}
		for _, e := range g.DirectBases(cur) {
			rev = append(rev, e.Base)
			walk(e.Base)
			rev = rev[:len(rev)-1]
		}
	}
	walk(to)
	return out
}

// AllPathsTo returns every path in the CHG ending at `to`, from any
// start (including the zero-edge path `to` itself). This enumerates
// exactly the subobjects-with-duplicates of a `to` object.
func AllPathsTo(g *chg.Graph, to chg.ClassID, limit int) []Path {
	if limit <= 0 {
		limit = DefaultLimit
	}
	var out []Path
	rev := []chg.ClassID{to}
	var walk func(cur chg.ClassID)
	walk = func(cur chg.ClassID) {
		n := len(rev)
		nodes := make([]chg.ClassID, n)
		for i, c := range rev {
			nodes[n-1-i] = c
		}
		out = append(out, Path{g: g, nodes: nodes})
		if len(out) > limit {
			panic(fmt.Sprintf("paths: more than %d paths to %s", limit, g.Name(to)))
		}
		for _, e := range g.DirectBases(cur) {
			rev = append(rev, e.Base)
			walk(e.Base)
			rev = rev[:len(rev)-1]
		}
	}
	walk(to)
	return out
}

// CountPathsTo returns the number of paths ending at `to` without
// enumerating them (a topological DP); this is the subobject count of
// a `to` object under purely non-virtual inheritance and an upper
// bound in general. Overflow-safe only up to int64; internal/subobject
// counts every class's paths at once, saturating at a limit.
func CountPathsTo(g *chg.Graph, to chg.ClassID) int64 {
	memo := make([]int64, g.NumClasses())
	for i := range memo {
		memo[i] = -1
	}
	var count func(c chg.ClassID) int64
	count = func(c chg.ClassID) int64 {
		if memo[c] >= 0 {
			return memo[c]
		}
		total := int64(1) // the zero-edge path
		for _, e := range g.DirectBases(c) {
			total += count(e.Base)
		}
		memo[c] = total
		return total
	}
	return count(to)
}

// DefnsPath returns DefnsPath(C, m) (Definition 10): every path α with
// mdc(α) = C and m ∈ M[ldc(α)], in deterministic order.
func DefnsPath(g *chg.Graph, c chg.ClassID, m chg.MemberID, limit int) []Path {
	var out []Path
	for _, p := range AllPathsTo(g, c, limit) {
		if g.Declares(p.Ldc(), m) {
			out = append(out, p)
		}
	}
	return out
}

// EquivClass is one ≈-equivalence class of paths: a subobject, named
// by a canonical representative. Members holds every path in the
// class that ends at the class's mdc (complete enumeration).
type EquivClass struct {
	Rep     Path   // representative (first in enumeration order)
	Members []Path // all ≈-equivalent paths, Rep included
}

// Ldc returns ldc([α]) (Definition 4): the least derived class shared
// by all members.
func (e EquivClass) Ldc() chg.ClassID { return e.Rep.Ldc() }

// Mdc returns mdc([α]) (Definition 4).
func (e EquivClass) Mdc() chg.ClassID { return e.Rep.Mdc() }

// Key returns the canonical subobject key shared by all members.
func (e EquivClass) Key() string { return e.Rep.Key() }

// Defns returns Defns(C, m) (Definition 7): the ≈-classes of
// DefnsPath(C, m), i.e. the subobjects of a C object that contain a
// member named m. Classes are ordered by first appearance in the
// deterministic path enumeration.
func Defns(g *chg.Graph, c chg.ClassID, m chg.MemberID, limit int) []EquivClass {
	return Declaring(Subobjects(g, c, limit), m)
}

// Declaring returns the elements of subs whose least derived class
// declares m, in order. Over Subobjects(g, C, limit) it is exactly
// Defns(C, m), with the same members in the same order: fixed(α)
// starts at ldc(α), so all paths of one ≈-class share their ldc and
// the class passes or fails the filter as a whole. Callers that need
// Defns for many members of one class enumerate its subobjects once
// and filter per member.
func Declaring(subs []EquivClass, m chg.MemberID) []EquivClass {
	out := []EquivClass{}
	for _, ec := range subs {
		if ec.Rep.g.Declares(ec.Ldc(), m) {
			out = append(out, ec)
		}
	}
	return out
}

// Subobjects returns every ≈-class of paths ending at c: the full
// subobject decomposition of a c object per Section 3 ("the collection
// of subobjects that constitute an instance of a class X").
func Subobjects(g *chg.Graph, c chg.ClassID, limit int) []EquivClass {
	var order []string
	byKey := map[string]*EquivClass{}
	for _, p := range AllPathsTo(g, c, limit) {
		k := p.Key()
		ec, ok := byKey[k]
		if !ok {
			ec = &EquivClass{Rep: p}
			byKey[k] = ec
			order = append(order, k)
		}
		ec.Members = append(ec.Members, p)
	}
	out := make([]EquivClass, len(order))
	for i, k := range order {
		out[i] = *byKey[k]
	}
	return out
}

// SortPaths orders paths deterministically (shorter first, then
// lexicographic by node ids); used by tests and printers.
func SortPaths(ps []Path) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].nodes, ps[j].nodes
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
