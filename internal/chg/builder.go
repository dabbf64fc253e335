package chg

import (
	"fmt"
	"maps"
	"slices"

	"cpplookup/internal/bitset"
)

// Builder accumulates classes, inheritance edges and member
// declarations and validates them into an immutable Graph.
//
// Validation enforces the C++ rules relevant to lookup:
//
//   - the inheritance relation must be acyclic (a class cannot be its
//     own base, directly or indirectly);
//   - a class may not name the same class twice in its base clause
//     ([class.mi]: "a class shall not be specified as a direct base
//     class of a derived class more than once");
//   - a class may not declare two members with the same name (we model
//     names, not overload sets — overloads are one name for lookup);
//   - a built class's base clause is closed (C++ classes are closed at
//     definition), so Base on a class a Graph holds is an error.
//
// A Builder may be edited and built again; successive Graphs share
// every class an edit left alone, and none changes after Build: the
// Builder copies what a Graph holds before writing it, and appends in
// place only to arrays it made, past every Graph's length.
type Builder struct {
	hierarchy

	// last is the Graph this Builder built last, or the one it was made
	// from; shared reports that classes still holds last's headers, and
	// copied marks the classes of last whose declarations the Builder
	// has copied since it copied the headers.
	last   *Graph
	shared bool
	copied bitset.Set

	err error // first structural error, reported by Build
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{hierarchy: hierarchy{
		byName:    make(map[string]ClassID),
		memberIDs: make(map[string]MemberID),
	}}
}

// NewBuilderFrom returns a Builder holding g's hierarchy and ids. It
// shares g's storage and copies nothing before its first edit.
func NewBuilderFrom(g *Graph) *Builder {
	return &Builder{hierarchy: g.hierarchy, last: g, shared: true}
}

// Class adds a class with the given name (or returns the existing one),
// letting callers declare classes before wiring edges. Names must be
// nonempty.
func (b *Builder) Class(name string) ClassID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	if name == "" {
		b.fail(fmt.Errorf("chg: empty class name"))
	}
	if b.last != nil && len(b.classes) == len(b.last.classes) {
		b.byName = maps.Clone(b.byName) // last holds the map
	}
	id := ClassID(len(b.classes))
	b.classes = append(b.classes, class{name: name})
	b.byName[name] = id
	return id
}

// Base records base as a direct base of derived with the given edge
// kind. Both classes must already exist (create them with Class), and
// derived must not be built yet.
func (b *Builder) Base(derived, base ClassID, kind Kind) *Builder {
	if !b.valid(derived) || !b.valid(base) {
		b.fail(fmt.Errorf("chg: Base(%d, %d): unknown class id", derived, base))
		return b
	}
	if derived == base {
		b.fail(fmt.Errorf("chg: class %s cannot be its own direct base", b.classes[derived].name))
		return b
	}
	if b.last != nil && int(derived) < len(b.last.classes) {
		b.fail(fmt.Errorf("chg: class %s is built, so its base clause is closed", b.classes[derived].name))
		return b
	}
	for _, e := range b.classes[derived].bases {
		if e.Base == base {
			b.fail(fmt.Errorf("chg: class %s names %s as a direct base more than once",
				b.classes[derived].name, b.classes[base].name))
			return b
		}
	}
	bc := b.header(base)
	bc.derived = append(bc.derived, derived)
	b.classes[derived].bases = append(b.classes[derived].bases, Edge{Base: base, Kind: kind})
	return b
}

// Member declares a member directly in class c.
func (b *Builder) Member(c ClassID, m Member) *Builder {
	if !b.valid(c) {
		b.fail(fmt.Errorf("chg: Member(%d, %q): unknown class id", c, m.Name))
		return b
	}
	if m.Name == "" {
		b.fail(fmt.Errorf("chg: class %s declares a member with an empty name", b.classes[c].name))
		return b
	}
	id := b.internMember(m.Name)
	if b.Declares(c, id) {
		b.fail(fmt.Errorf("chg: class %s declares member %s more than once", b.classes[c].name, m.Name))
		return b
	}
	cl := b.decls(c)
	cl.decls = append(cl.decls, Decl{Member: m, ID: id})
	return b
}

// RemoveMember deletes class c's declaration of member name m.
func (b *Builder) RemoveMember(c ClassID, m MemberID) *Builder {
	if !b.valid(c) || !b.Declares(c, m) {
		b.fail(fmt.Errorf("chg: RemoveMember(%d, %d): no such declaration", c, m))
		return b
	}
	cl := b.decls(c)
	cl.decls = slices.DeleteFunc(cl.decls, func(d Decl) bool { return d.ID == m })
	return b
}

// Method declares a non-static member function named name in c; a
// convenience for the common case in tests and generators.
func (b *Builder) Method(c ClassID, name string) *Builder {
	return b.Member(c, Member{Name: name, Kind: Method})
}

// MemberName interns a member name without declaring it anywhere and
// returns its id. Member ids are assigned in interning order, so a
// caller that pre-interns names in a fixed order pins the Graph's
// member-id assignment regardless of the order declarations arrive in.
func (b *Builder) MemberName(name string) MemberID {
	if name == "" {
		b.fail(fmt.Errorf("chg: empty member name"))
		return NoMember
	}
	return b.internMember(name)
}

// Build validates the accumulated hierarchy and returns the immutable
// Graph: it checks acyclicity, fixes the topological order, and
// computes every class's virtual-base list. Build may be called again
// after further edits; it recomputes the order, as a fresh Builder
// would, and the virtual-base lists of new classes only if one was added.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.classes)
	g := &Graph{hierarchy: b.hierarchy}
	g.classes, g.memberNames = slices.Clip(g.classes), slices.Clip(g.memberNames)
	var prev [][]ClassID
	if last := b.last; last != nil {
		if len(last.classes) == n { // no class added, so no edge either
			g.topo, g.topoPos, g.vlists = last.topo, last.topoPos, last.vlists
			g.numEdges, g.numVirtualEdges = last.numEdges, last.numVirtualEdges
			b.last, b.shared = g, true
			return g, nil
		}
		prev = last.vlists
	}
	for i := range g.classes {
		g.numEdges += len(g.classes[i].bases)
		for _, e := range g.classes[i].bases {
			if e.Kind == Virtual {
				g.numVirtualEdges++
			}
		}
	}

	// Kahn's algorithm over base → derived edges: a class is ready once
	// all its direct bases are placed. The order doubles as the queue.
	indeg := make([]int, n)
	g.topo = make([]ClassID, 0, n)
	for i := range g.classes {
		if indeg[i] = len(g.classes[i].bases); indeg[i] == 0 {
			g.topo = append(g.topo, ClassID(i))
		}
	}
	g.topoPos = make([]int, n)
	for head := 0; head < len(g.topo); head++ {
		c := g.topo[head]
		g.topoPos[c] = head
		for _, d := range g.classes[c].derived {
			if indeg[d]--; indeg[d] == 0 {
				g.topo = append(g.topo, d)
			}
		}
	}
	if len(g.topo) != n {
		return nil, fmt.Errorf("chg: inheritance graph has a cycle through %s", b.cycleWitness(indeg))
	}

	g.vlists = buildVirtualLists(g, prev)
	b.last, b.shared = g, true
	return g, nil
}

// MustBuild is Build but panics on error; for tests and generators
// whose input is statically known to be well-formed.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// buildVirtualLists runs the virtual-bases recurrence over the
// topological order, as sorted per-class id lists:
//
//	VirtualBases(D) = ∪_{X ∈ direct(D)} VirtualBases(X)
//	                  ∪ {X | edge X→D is virtual}
//
// This is the paper's definition: X' is a virtual base of D iff some
// path X' → D begins with a virtual edge; any such path either is the
// single virtual edge X→D or factors through a direct base X with X'
// already a virtual base of X. On realistic hierarchies the lists stay
// a handful of entries long, so the whole relation is a few megabytes
// at 100k classes, where an |N|²-bit matrix would be 1.25 GB. Classes
// prev covers keep their lists: their bases are closed.
func buildVirtualLists(g *Graph, prev [][]ClassID) [][]ClassID {
	vlists := make([][]ClassID, len(g.classes))
	copy(vlists, prev)
	var scratch []ClassID
	for _, d := range g.topo {
		if int(d) < len(prev) {
			continue
		}
		scratch = scratch[:0]
		for _, e := range g.classes[d].bases {
			scratch = append(scratch, vlists[e.Base]...)
			if e.Kind == Virtual {
				scratch = append(scratch, e.Base)
			}
		}
		if len(scratch) == 0 {
			continue
		}
		slices.Sort(scratch)
		vlists[d] = slices.Clone(slices.Compact(scratch))
	}
	return vlists
}

func (b *Builder) internMember(name string) MemberID {
	if id, ok := b.memberIDs[name]; ok {
		return id
	}
	if b.last != nil && len(b.memberNames) == len(b.last.memberNames) {
		b.memberIDs = maps.Clone(b.memberIDs) // last holds the map
	}
	id := MemberID(len(b.memberNames))
	b.memberNames = append(b.memberNames, name)
	b.memberIDs[name] = id
	return id
}

func (b *Builder) valid(c ClassID) bool { return c >= 0 && int(c) < len(b.classes) }

// header returns class c's header to write, first copying the header
// array if the last Graph holds c. The copy clips derived lists, so
// appends never write into an array another Builder may extend.
func (b *Builder) header(c ClassID) *class {
	if b.shared && int(c) < len(b.last.classes) {
		b.classes = slices.Clone(b.classes)
		for i := range b.last.classes {
			b.classes[i].derived = slices.Clip(b.classes[i].derived)
		}
		b.copied.Clear()
		b.shared = false
	}
	return &b.classes[c]
}

// decls returns class c's header to change its declarations, first
// copying any declarations a Graph holds.
func (b *Builder) decls(c ClassID) *class {
	cl := b.header(c)
	if b.last != nil && int(c) < len(b.last.classes) && !b.copied.Has(int(c)) {
		cl.decls = slices.Clone(cl.decls)
		b.copied.Grow(len(b.last.classes))
		b.copied.Add(int(c))
	}
	return cl
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// cycleWitness names one class that is part of (or downstream of) a
// cycle, to make the error actionable.
func (b *Builder) cycleWitness(indeg []int) string {
	for i, d := range indeg {
		if d > 0 {
			return b.classes[i].name
		}
	}
	return "?"
}
