// Package chg implements the Class Hierarchy Graph (CHG) of Section 2
// of Ramalingam & Srinivasan, "A Member Lookup Algorithm for C++"
// (PLDI 1997).
//
// The CHG is a directed acyclic graph (N, E) whose nodes are classes
// and whose edges are inheritance relations. An edge X → Y means X is
// a *direct base* of Y; each edge is either virtual (E_v) or
// non-virtual (E_nv). Every class declares a set of members M[X],
// which the graph keeps as one list of Decls in declaration order,
// each carrying the MemberID its name was interned at: the paper's
// test "m ∈ M[X]" (Declares) is a scan of that short list, and no
// reader hashes a declaration's name back to its id.
//
// A Graph is immutable once constructed via Builder.Build, which also
// fixes the topological order and computes, for every class D, the
// sorted list of its virtual bases: X ∈ VirtualBases(D) iff some path
// X → D starts with a virtual edge (the paper's "virtual base class"
// definition). Those lists are all the Lemma-4 dominance test of the
// lookup algorithm (internal/core) reads, as a binary search. The
// graph stores no other closure: the strict base relation (X is a base
// of Y iff there is a nonempty path X → Y) and its transpose are
// answered by walking the direct lists — EachAncestor and
// EachDescendant visit a class's cone, and IsBase walks up from the
// derived class — so no structure grows as |N|².
//
// The Builder is the one mutable form of the hierarchy: it may keep
// editing and build again, sharing every untouched class between Graphs.
package chg

import (
	"fmt"

	"cpplookup/internal/bitset"
)

// ClassID identifies a class in a Graph. IDs are dense: 0 … NumClasses-1.
type ClassID int32

// Omega is the paper's Ω: the sentinel "not a virtual path" value in the
// abstract domain N ∪ {Ω} over which leastVirtual and the ∘ operator
// work. It is not a valid class.
const Omega ClassID = -1

// Kind distinguishes virtual from non-virtual inheritance edges.
type Kind uint8

const (
	// NonVirtual is an E_nv edge: each occurrence creates a distinct
	// subobject of the base class.
	NonVirtual Kind = iota
	// Virtual is an E_v edge: all virtual occurrences of the base are
	// shared within one complete object.
	Virtual
)

func (k Kind) String() string {
	if k == Virtual {
		return "virtual"
	}
	return "non-virtual"
}

// Edge is one direct-inheritance relation as seen from the derived
// class: Base is a direct base reached through an edge of kind Kind.
type Edge struct {
	Base ClassID
	Kind Kind
}

// MemberKind classifies what a class member is. Type names and
// enumerators are treated exactly like static data members during
// lookup (paper, Section 6).
type MemberKind uint8

const (
	Method MemberKind = iota
	Field
	TypeName
	Enumerator
)

func (k MemberKind) String() string {
	switch k {
	case Method:
		return "method"
	case Field:
		return "field"
	case TypeName:
		return "type"
	case Enumerator:
		return "enumerator"
	}
	return fmt.Sprintf("MemberKind(%d)", uint8(k))
}

// Member is one member declaration of a class, as written.
type Member struct {
	Name    string
	Kind    MemberKind
	Static  bool // static member (incl. type names and enumerators)
	Virtual bool // virtual member function (used by internal/vtable)
}

// StaticForLookup reports whether the member follows the static-member
// dominance rule of Definition 17: declared static, a nested type
// name, or an enumerator.
func (m Member) StaticForLookup() bool {
	return m.Static || m.Kind == TypeName || m.Kind == Enumerator
}

// MemberID identifies an interned member name. The universe of member
// names is shared across the whole Graph so the lookup table can be a
// dense |N| × |M| array.
type MemberID int32

// NoMember is returned by MemberID lookups for unknown names.
const NoMember MemberID = -1

// Decl is one member declared directly in a class, with the id the
// Builder interned for its name.
type Decl struct {
	Member
	ID MemberID
}

type class struct {
	name    string
	bases   []Edge
	derived []ClassID // classes that list this class as a direct base
	decls   []Decl    // members declared directly here, in declaration order
}

// hierarchy is the store a Graph shares with the Builder that made it:
// the classes in id order and the interned member names.
type hierarchy struct {
	classes []class
	byName  map[string]ClassID

	memberNames []string
	memberIDs   map[string]MemberID
}

// Graph is an immutable class hierarchy graph.
type Graph struct {
	hierarchy

	topo    []ClassID // bases strictly before derived
	topoPos []int     // topoPos[c] = index of c in topo

	// vlists[d] is the sorted list of the virtual bases of d, computed
	// by Build and immutable after it.
	vlists [][]ClassID

	numEdges        int
	numVirtualEdges int
}

// containsClass reports membership in a sorted ClassID slice.
func containsClass(xs []ClassID, c ClassID) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == c
}

// NumClasses returns |N|.
func (h *hierarchy) NumClasses() int { return len(h.classes) }

// NumEdges returns |E| (virtual + non-virtual).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumVirtualEdges returns |E_v|.
func (g *Graph) NumVirtualEdges() int { return g.numVirtualEdges }

// NumMemberNames returns the number of distinct member names |M|.
func (g *Graph) NumMemberNames() int { return len(g.memberNames) }

// Name returns the class's name.
func (g *Graph) Name(c ClassID) string { return g.classes[c].name }

// ID returns the class with the given name.
func (h *hierarchy) ID(name string) (ClassID, bool) {
	id, ok := h.byName[name]
	return id, ok
}

// MustID is ID but panics on unknown names; convenient in tests and
// generators where the name is known statically.
func (g *Graph) MustID(name string) ClassID {
	id, ok := g.byName[name]
	if !ok {
		panic("chg: unknown class " + name)
	}
	return id
}

// Valid reports whether c is a class of this graph.
func (g *Graph) Valid(c ClassID) bool { return c >= 0 && int(c) < len(g.classes) }

// DirectBases returns the ordered direct bases of c. The slice is
// shared with the graph and must not be modified.
func (g *Graph) DirectBases(c ClassID) []Edge { return g.classes[c].bases }

// DirectDerived returns the classes that have c as a direct base, in
// insertion order. Shared slice; do not modify.
func (g *Graph) DirectDerived(c ClassID) []ClassID { return g.classes[c].derived }

// Edge returns the kind of the direct edge base → derived and whether
// such an edge exists. The builder guarantees at most one direct edge
// per class pair, so the kind is unique.
func (g *Graph) Edge(base, derived ClassID) (Kind, bool) {
	for _, e := range g.classes[derived].bases {
		if e.Base == base {
			return e.Kind, true
		}
	}
	return 0, false
}

// DeclaredMembers returns the members declared directly in c (the
// paper's M[c]) in declaration order, each with its member id. Shared
// slice; do not modify.
func (g *Graph) DeclaredMembers(c ClassID) []Decl { return g.classes[c].decls }

// MemberID returns the interned id for a member name.
func (h *hierarchy) MemberID(name string) (MemberID, bool) {
	id, ok := h.memberIDs[name]
	return id, ok
}

// MustMemberID is MemberID but panics on unknown names.
func (g *Graph) MustMemberID(name string) MemberID {
	id, ok := g.memberIDs[name]
	if !ok {
		panic("chg: unknown member name " + name)
	}
	return id
}

// MemberName returns the name for an interned member id.
func (g *Graph) MemberName(m MemberID) string { return g.memberNames[m] }

// MemberNames returns all interned member names, indexed by MemberID.
// Shared slice; do not modify.
func (g *Graph) MemberNames() []string { return g.memberNames }

// Declares reports whether class c directly declares member name m
// (the paper's test "m ∈ M[c]").
func (h *hierarchy) Declares(c ClassID, m MemberID) bool {
	_, ok := h.DeclaredMember(c, m)
	return ok
}

// DeclaredMember returns the declaration of member name m in class c,
// by a scan of c's declarations: a class declares a few dozen members
// at most, so the scan is the whole index.
func (h *hierarchy) DeclaredMember(c ClassID, m MemberID) (Member, bool) {
	for _, d := range h.classes[c].decls {
		if d.ID == m {
			return d.Member, true
		}
	}
	return Member{}, false
}

// IsBase reports whether b is a (strict, possibly indirect) base of d:
// there is a nonempty CHG path b → d. It walks up from d and never
// enters a class placed before b in Topo, since none of those can
// derive from b, so the walk and its visited set span only the
// classes between b and d in topological order.
func (g *Graph) IsBase(b, d ClassID) bool {
	lo, hi := g.topoPos[b], g.topoPos[d]
	if lo >= hi {
		return false
	}
	seen := bitset.New(hi - lo)
	stack := []ClassID{d}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.classes[c].bases {
			p := g.topoPos[e.Base] - lo
			if p == 0 {
				return true // e.Base == b: the only class at b's position
			}
			if p > 0 && !seen.Has(p) {
				seen.Add(p)
				stack = append(stack, e.Base)
			}
		}
	}
	return false
}

// IsVirtualBase reports whether b is a virtual base of d: some path
// b → d starts with a virtual edge. This is the Lemma-4 probe on the
// lookup hot path, a binary search of d's sorted virtual-base list.
func (g *Graph) IsVirtualBase(b, d ClassID) bool {
	if b == Omega || d == Omega {
		return false
	}
	return containsClass(g.vlists[d], b)
}

// VirtualBases returns the virtual bases of d in ascending id order.
// Shared slice; do not modify.
func (g *Graph) VirtualBases(d ClassID) []ClassID { return g.vlists[d] }

// EachDescendant calls fn once for every strict descendant of b, in
// breadth-first order over DirectDerived edges. visited and queue are
// caller-owned scratch: visited is grown to NumClasses and cleared of
// the classes this call marked before returning; queue's grown backing
// array is returned for reuse. This is the cone primitive bulk
// consumers (devirt's CHA target sets, the same shape as incremental's
// invalidation cones) use to stay memory-bounded at 100k classes.
func (g *Graph) EachDescendant(b ClassID, visited *bitset.Set, queue []ClassID, fn func(ClassID)) []ClassID {
	return g.walk(b, false, visited, queue, fn)
}

// EachAncestor calls fn once for every strict base of d, in
// breadth-first order over DirectBases edges: the mirror of
// EachDescendant, with the same scratch contract.
func (g *Graph) EachAncestor(d ClassID, visited *bitset.Set, queue []ClassID, fn func(ClassID)) []ClassID {
	return g.walk(d, true, visited, queue, fn)
}

// walk is the breadth-first cone walk from start, up the direct bases
// or down the direct derived lists.
func (g *Graph) walk(start ClassID, up bool, visited *bitset.Set, queue []ClassID, fn func(ClassID)) []ClassID {
	visited.Grow(len(g.classes))
	visited.Add(int(start))
	queue = append(queue[:0], start)
	visit := func(c ClassID) {
		if !visited.Has(int(c)) {
			visited.Add(int(c))
			queue = append(queue, c)
			fn(c)
		}
	}
	for head := 0; head < len(queue); head++ {
		if cl := &g.classes[queue[head]]; up {
			for _, e := range cl.bases {
				visit(e.Base)
			}
		} else {
			for _, c := range cl.derived {
				visit(c)
			}
		}
	}
	for _, c := range queue {
		visited.Remove(int(c))
	}
	return queue
}

// VisibleMembers returns Members[c], the ids of the member names
// declared by c or any of its bases, in ascending order. A member is
// visible exactly where its lookup cell is defined, so this matches
// core.Table.Members without tabulating the hierarchy.
func (g *Graph) VisibleMembers(c ClassID) []MemberID {
	vis := bitset.New(len(g.memberNames))
	addDecls := func(x ClassID) {
		for _, d := range g.classes[x].decls {
			vis.Add(int(d.ID))
		}
	}
	addDecls(c)
	g.EachAncestor(c, new(bitset.Set), nil, addDecls)
	out := make([]MemberID, 0, vis.Count())
	vis.ForEach(func(m int) { out = append(out, MemberID(m)) })
	return out
}

// Topo returns a topological order of the classes in which every base
// precedes every class derived from it. Shared slice; do not modify.
func (g *Graph) Topo() []ClassID { return g.topo }

// TopoPos returns the position of c in Topo(). Base classes have
// smaller positions than their derived classes; this is the
// "topological number" of Section 7.2.
func (g *Graph) TopoPos(c ClassID) int { return g.topoPos[c] }

// Roots returns the classes with no bases, in id order.
func (g *Graph) Roots() []ClassID {
	var out []ClassID
	for i := range g.classes {
		if len(g.classes[i].bases) == 0 {
			out = append(out, ClassID(i))
		}
	}
	return out
}

// Leaves returns the classes with no derived classes, in id order.
func (g *Graph) Leaves() []ClassID {
	var out []ClassID
	for i := range g.classes {
		if len(g.classes[i].derived) == 0 {
			out = append(out, ClassID(i))
		}
	}
	return out
}

// ClassNames returns all class names in id order.
func (g *Graph) ClassNames() []string {
	out := make([]string, len(g.classes))
	for i := range g.classes {
		out[i] = g.classes[i].name
	}
	return out
}

// Size returns |N| + |E|, the paper's measure of hierarchy size.
func (g *Graph) Size() int { return g.NumClasses() + g.NumEdges() }
