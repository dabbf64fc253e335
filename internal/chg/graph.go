// Package chg implements the Class Hierarchy Graph (CHG) of Section 2
// of Ramalingam & Srinivasan, "A Member Lookup Algorithm for C++"
// (PLDI 1997).
//
// The CHG is a directed acyclic graph (N, E) whose nodes are classes
// and whose edges are inheritance relations. An edge X → Y means X is
// a *direct base* of Y; each edge is either virtual (E_v) or
// non-virtual (E_nv). Every class declares a set of members M[X].
//
// A Graph is immutable once constructed via Builder.Build, which also
// fixes the topological order and computes, for every class D, the
// sorted list of its virtual bases: X ∈ VirtualBases(D) iff some path
// X → D starts with a virtual edge (the paper's "virtual base class"
// definition). Those lists are all the Lemma-4 dominance test of the
// lookup algorithm (internal/core) reads, as a binary search. The
// strict base relation (X ∈ Bases(Y) iff there is a nonempty path
// X → Y) and its transpose, Descendants, are |N|²-bit matrices built
// on first use, for the whole-hierarchy analyses that ask for them;
// EachDescendant walks a cone without either.
package chg

import (
	"fmt"
	"sync"

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

// Member is one directly declared member of a class.
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

type class struct {
	name    string
	bases   []Edge
	derived []ClassID // classes that list this class as a direct base
	// members declared directly in this class, position-indexed by
	// declaration order; declared[m] indexes into members for name m.
	members  []Member
	declared map[MemberID]int
}

// Graph is an immutable class hierarchy graph.
type Graph struct {
	classes []class
	byName  map[string]ClassID

	memberNames []string
	memberIDs   map[string]MemberID

	topo    []ClassID // bases strictly before derived
	topoPos []int     // topoPos[c] = index of c in topo

	// vlists[d] is the sorted list of the virtual bases of d, computed
	// by Build and immutable after it, so IsVirtualBase — the per-cell
	// Lemma-4 probe — never touches a Once. The two matrices start nil
	// and each materializes on first use via its sync.Once.
	vlists      [][]ClassID
	bases       *bitset.Matrix // row d: strict bases of d
	descendants *bitset.Matrix // row b: strict descendants of b (transpose of bases)
	basesOnce   sync.Once
	descOnce    sync.Once // needs bases first

	numEdges        int
	numVirtualEdges int
}

// denseBases returns the bases closure matrix, materializing it on
// first use.
func (g *Graph) denseBases() *bitset.Matrix {
	g.basesOnce.Do(g.materializeBases)
	return g.bases
}

func (g *Graph) denseDescendants() *bitset.Matrix {
	g.descOnce.Do(g.materializeDescendants)
	return g.descendants
}

// materializeBases runs the bases recurrence in one pass over the
// topological order:
//
//	Bases(D) = ∪_{X ∈ direct(D)} Bases(X) ∪ {X}
func (g *Graph) materializeBases() {
	bases := bitset.NewMatrix(len(g.classes))
	for _, d := range g.topo {
		for _, e := range g.classes[d].bases {
			bases.Set(int(d), int(e.Base))
			bases.OrRow(int(d), int(e.Base))
		}
	}
	g.bases = bases
}

// materializeDescendants transposes the bases closure: row b is the
// set of classes that have b as a strict base — exactly the
// invalidation cone of an edit in b (lookup[D,m] can depend on a
// declaration in b only when b is an ancestor of D), and the
// reachability set whole-hierarchy analyses iterate.
func (g *Graph) materializeDescendants() {
	db := g.denseBases()
	n := len(g.classes)
	desc := bitset.NewMatrix(n)
	for d := 0; d < n; d++ {
		db.Row(d).ForEach(func(b int) { desc.Set(b, d) })
	}
	g.descendants = desc
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
func (g *Graph) NumClasses() int { return len(g.classes) }

// NumEdges returns |E| (virtual + non-virtual).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumVirtualEdges returns |E_v|.
func (g *Graph) NumVirtualEdges() int { return g.numVirtualEdges }

// NumMemberNames returns the number of distinct member names |M|.
func (g *Graph) NumMemberNames() int { return len(g.memberNames) }

// Name returns the class's name.
func (g *Graph) Name(c ClassID) string { return g.classes[c].name }

// ID returns the class with the given name.
func (g *Graph) ID(name string) (ClassID, bool) {
	id, ok := g.byName[name]
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
// paper's M[c]) in declaration order. Shared slice; do not modify.
func (g *Graph) DeclaredMembers(c ClassID) []Member { return g.classes[c].members }

// MemberID returns the interned id for a member name.
func (g *Graph) MemberID(name string) (MemberID, bool) {
	id, ok := g.memberIDs[name]
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
func (g *Graph) Declares(c ClassID, m MemberID) bool {
	_, ok := g.classes[c].declared[m]
	return ok
}

// DeclaredMember returns the declaration of member name m in class c.
func (g *Graph) DeclaredMember(c ClassID, m MemberID) (Member, bool) {
	i, ok := g.classes[c].declared[m]
	if !ok {
		return Member{}, false
	}
	return g.classes[c].members[i], true
}

// IsBase reports whether b is a (strict, possibly indirect) base of d:
// there is a nonempty CHG path b → d.
func (g *Graph) IsBase(b, d ClassID) bool { return g.denseBases().Has(int(d), int(b)) }

// IsVirtualBase reports whether b is a virtual base of d: some path
// b → d starts with a virtual edge. This is the Lemma-4 probe on the
// lookup hot path, a binary search of d's sorted virtual-base list.
func (g *Graph) IsVirtualBase(b, d ClassID) bool {
	if b == Omega || d == Omega {
		return false
	}
	return containsClass(g.vlists[d], b)
}

// Bases returns the strict bases of d as a shared bit set (universe =
// class ids). Do not modify.
func (g *Graph) Bases(d ClassID) *bitset.Set { return g.denseBases().Row(int(d)) }

// VirtualBases returns the virtual bases of d in ascending id order.
// Shared slice; do not modify.
func (g *Graph) VirtualBases(d ClassID) []ClassID { return g.vlists[d] }

// Descendants returns the strict descendants of b as a shared bit set
// (universe = class ids): every class with b as a possibly-indirect
// base. This is the transpose row of the bases closure — the exact
// invalidation cone of an edit to b's declarations, and the
// reachability set whole-hierarchy analyses (chglint) iterate instead
// of probing IsBase across all classes. Do not modify.
func (g *Graph) Descendants(b ClassID) *bitset.Set { return g.denseDescendants().Row(int(b)) }

// EachDescendant calls fn once for every strict descendant of b, in
// breadth-first order over DirectDerived edges, without materializing
// the Descendants matrix. visited and queue are caller-owned scratch:
// visited is grown to NumClasses and cleared of the classes this call
// marked before returning; queue's grown backing array is returned for
// reuse. This is the cone primitive bulk consumers (devirt's CHA
// target sets, the same shape as incremental's invalidation cones)
// use to stay memory-bounded at 100k classes.
func (g *Graph) EachDescendant(b ClassID, visited *bitset.Set, queue []ClassID, fn func(ClassID)) []ClassID {
	visited.Grow(len(g.classes))
	queue = queue[:0]
	visited.Add(int(b))
	queue = append(queue, b)
	for head := 0; head < len(queue); head++ {
		for _, d := range g.classes[queue[head]].derived {
			if !visited.Has(int(d)) {
				visited.Add(int(d))
				queue = append(queue, d)
				fn(d)
			}
		}
	}
	for _, c := range queue {
		visited.Remove(int(c))
	}
	return queue
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
