package chg

import (
	"fmt"
	"slices"
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
//     names, not overload sets — overloads are one name for lookup).
type Builder struct {
	classes []class
	byName  map[string]ClassID

	memberNames []string
	memberIDs   map[string]MemberID

	err error // first structural error, reported by Build
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		byName:    make(map[string]ClassID),
		memberIDs: make(map[string]MemberID),
	}
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
	id := ClassID(len(b.classes))
	b.classes = append(b.classes, class{name: name, declared: make(map[MemberID]int)})
	b.byName[name] = id
	return id
}

// Base records base as a direct base of derived with the given edge
// kind. Both classes must already exist (create them with Class).
func (b *Builder) Base(derived, base ClassID, kind Kind) *Builder {
	if !b.valid(derived) || !b.valid(base) {
		b.fail(fmt.Errorf("chg: Base(%d, %d): unknown class id", derived, base))
		return b
	}
	if derived == base {
		b.fail(fmt.Errorf("chg: class %s cannot be its own direct base", b.classes[derived].name))
		return b
	}
	for _, e := range b.classes[derived].bases {
		if e.Base == base {
			b.fail(fmt.Errorf("chg: class %s names %s as a direct base more than once",
				b.classes[derived].name, b.classes[base].name))
			return b
		}
	}
	b.classes[derived].bases = append(b.classes[derived].bases, Edge{Base: base, Kind: kind})
	b.classes[base].derived = append(b.classes[base].derived, derived)
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
	cl := &b.classes[c]
	if _, dup := cl.declared[id]; dup {
		b.fail(fmt.Errorf("chg: class %s declares member %s more than once", cl.name, m.Name))
		return b
	}
	cl.declared[id] = len(cl.members)
	cl.members = append(cl.members, m)
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
// internal/incremental relies on this to keep member ids stable across
// successive freezes of the same workspace (the contract the engine's
// warm-cache carry-over is built on).
func (b *Builder) MemberName(name string) MemberID {
	if name == "" {
		b.fail(fmt.Errorf("chg: empty member name"))
		return NoMember
	}
	return b.internMember(name)
}

// Build validates the accumulated hierarchy and returns the immutable
// Graph: it checks acyclicity, fixes the topological order, and
// computes every class's virtual-base list.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.classes)
	g := &Graph{
		classes:     b.classes,
		byName:      b.byName,
		memberNames: b.memberNames,
		memberIDs:   b.memberIDs,
		topoPos:     make([]int, n),
	}
	for i := range g.classes {
		g.numEdges += len(g.classes[i].bases)
		for _, e := range g.classes[i].bases {
			if e.Kind == Virtual {
				g.numVirtualEdges++
			}
		}
	}

	// Kahn's algorithm over base → derived edges: a class is ready
	// once all its direct bases are placed.
	indeg := make([]int, n)
	for i := range g.classes {
		indeg[i] = len(g.classes[i].bases)
	}
	queue := make([]ClassID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, ClassID(i))
		}
	}
	g.topo = make([]ClassID, 0, n)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		g.topoPos[c] = len(g.topo)
		g.topo = append(g.topo, c)
		for _, d := range g.classes[c].derived {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(g.topo) != n {
		return nil, fmt.Errorf("chg: inheritance graph has a cycle through %s", b.cycleWitness(indeg))
	}

	g.vlists = buildVirtualLists(g)
	// Builder must not be reused: the Graph owns the slices now.
	b.classes = nil
	b.byName = nil
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
// at 100k classes, where an |N|²-bit matrix would be 1.25 GB.
func buildVirtualLists(g *Graph) [][]ClassID {
	vlists := make([][]ClassID, len(g.classes))
	var scratch []ClassID
	for _, d := range g.topo {
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
	id := MemberID(len(b.memberNames))
	b.memberNames = append(b.memberNames, name)
	b.memberIDs[name] = id
	return id
}

func (b *Builder) valid(c ClassID) bool { return c >= 0 && int(c) < len(b.classes) }

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
