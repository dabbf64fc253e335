package chg

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// describe renders everything a Graph answers, so two renderings
// differ iff some accessor does.
func describe(g *Graph) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, g.MemberNames(), g.Topo(), g.NumEdges(), g.NumVirtualEdges())
	for c := ClassID(0); int(c) < g.NumClasses(); c++ {
		id, _ := g.ID(g.Name(c))
		fmt.Fprintln(&sb, g.Name(c), id, g.DirectBases(c), g.DirectDerived(c), g.DeclaredMembers(c),
			g.VirtualBases(c), g.TopoPos(c), g.VisibleMembers(c))
	}
	return sb.String()
}

// A Builder may be edited and built again: each Build returns a new
// Graph, and no later edit, by that Builder or by another one made
// from a Graph with NewBuilderFrom, changes a Graph already built.
func TestBuilderBuildsAgain(t *testing.T) {
	// Five classes and three member names, added one at a time, leave
	// spare room in the header and member-name arrays, A's three
	// derived classes in its derived list, and F's three declarations
	// in its declaration list: room a builder made from g1 must not
	// write into.
	b := NewBuilder()
	a := b.Class("A")
	bb := b.Class("B")
	c := b.Class("C")
	e := b.Class("E")
	f := b.Class("F")
	b.Base(bb, a, Virtual)
	b.Base(c, a, NonVirtual)
	b.Base(e, a, NonVirtual)
	b.Method(a, "m")
	b.Method(a, "n")
	b.Method(f, "o")
	b.Method(f, "m")
	b.Method(f, "n")
	g1 := b.MustBuild()
	want1 := describe(g1)

	// Declarations change and a class is added: g1 stays as it was.
	d := b.Class("D")
	b.Base(d, bb, NonVirtual)
	b.Base(d, c, NonVirtual)
	b.Method(d, "m")
	b.RemoveMember(a, g1.MustMemberID("m"))
	b.RemoveMember(f, g1.MustMemberID("m")) // the middle one of three
	b.Method(bb, "k")
	g2 := b.MustBuild()
	if got := describe(g1); got != want1 {
		t.Fatalf("the first graph changed:\n%s\nwant:\n%s", got, want1)
	}
	o, m, n := Decl{Member{Name: "o"}, 2}, Decl{Member{Name: "m"}, 0}, Decl{Member{Name: "n"}, 1}
	if got := g2.DeclaredMembers(f); !slices.Equal(got, []Decl{o, n}) {
		t.Errorf("F declares %v after removing m, want %v", got, []Decl{o, n})
	}
	if got := g1.DeclaredMembers(f); !slices.Equal(got, []Decl{o, m, n}) {
		t.Errorf("the first graph's F declares %v, want %v", got, []Decl{o, m, n})
	}
	if got := g2.DeclaredMembers(a); len(got) != 1 || got[0].Name != "n" || g2.Declares(a, g2.MustMemberID("m")) {
		t.Errorf("A declares %v after removing m", got)
	}
	if got := g2.DirectDerived(bb); !slices.Equal(got, []ClassID{d}) {
		t.Errorf("DirectDerived(B) = %v, want [D]", got)
	}
	if got := g2.VirtualBases(d); !slices.Equal(got, []ClassID{a}) {
		t.Errorf("VirtualBases(D) = %v, want [A]", got)
	}
	if got := g2.MemberNames(); !slices.Equal(got, []string{"m", "n", "o", "k"}) {
		t.Errorf("member names %v", got)
	}
	if g2.NumEdges() != 5 || g2.NumVirtualEdges() != 1 || len(g2.Topo()) != 6 {
		t.Errorf("%d edges, %d virtual, order %v", g2.NumEdges(), g2.NumVirtualEdges(), g2.Topo())
	}

	// A build that adds no class reuses the order and virtual-base lists.
	b.Method(c, "n")
	g3 := b.MustBuild()
	if &g3.topo[0] != &g2.topo[0] || &g3.vlists[0] != &g2.vlists[0] {
		t.Error("a build without new classes recomputed the order or the virtual-base lists")
	}
	want2, want3 := describe(g2), describe(g3)

	// Two builders made from g1 add classes, derived-list entries (Z
	// and W under different ids), member names and declaration changes
	// of their own.
	b1, b2 := NewBuilderFrom(g1), NewBuilderFrom(g1)
	x := b1.Class("X")
	y := b2.Class("Y")
	b2.Class("Y2")
	b1.Base(b1.Class("Z"), a, NonVirtual)
	b2.Base(b2.Class("W"), a, NonVirtual)
	b1.MemberName("p")
	b2.MemberName("q")
	b1.RemoveMember(a, g1.MustMemberID("n"))
	b2.Method(a, "q")
	h1, h2 := b1.MustBuild(), b2.MustBuild()
	if h1.Name(x) != "X" || h2.Name(y) != "Y" {
		t.Errorf("class %d is %s and %s, want X and Y", x, h1.Name(x), h2.Name(y))
	}
	if got := h1.DirectDerived(a); !slices.Equal(got, []ClassID{bb, c, e, h1.MustID("Z")}) {
		t.Errorf("first builder: DirectDerived(A) = %v", got)
	}
	if got := h2.DirectDerived(a); !slices.Equal(got, []ClassID{bb, c, e, h2.MustID("W")}) {
		t.Errorf("second builder: DirectDerived(A) = %v", got)
	}
	if h1.MemberName(3) != "p" || h2.MemberName(3) != "q" {
		t.Errorf("member 3 is %s and %s, want p and q", h1.MemberName(3), h2.MemberName(3))
	}
	if len(h1.DeclaredMembers(a)) != 1 || len(h2.DeclaredMembers(a)) != 3 {
		t.Errorf("A declares %v and %v", h1.DeclaredMembers(a), h2.DeclaredMembers(a))
	}

	// Names added later are unknown to earlier graphs and to the other
	// builder's.
	for _, probe := range []struct {
		g     *Graph
		class string
	}{{g1, "D"}, {g1, "X"}, {g3, "W"}, {h1, "Y2"}, {h2, "Z"}} {
		if _, ok := probe.g.ID(probe.class); ok {
			t.Errorf("a graph without class %s knows its name", probe.class)
		}
	}
	for _, probe := range []struct {
		g      *Graph
		member string
	}{{g1, "k"}, {g1, "p"}, {g3, "q"}, {h1, "q"}, {h2, "p"}} {
		if _, ok := probe.g.MemberID(probe.member); ok {
			t.Errorf("a graph without member name %s knows it", probe.member)
		}
	}
	for _, g := range []struct {
		name      string
		got, want string
	}{{"first", describe(g1), want1}, {"second", describe(g2), want2}, {"third", describe(g3), want3}} {
		if g.got != g.want {
			t.Errorf("the %s graph changed:\n%s\nwant:\n%s", g.name, g.got, g.want)
		}
	}

	// A built class's base clause is closed.
	b.Base(a, d, NonVirtual)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Base on a built class: Build error %v", err)
	}
}
