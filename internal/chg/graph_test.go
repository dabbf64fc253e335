package chg

import (
	"math/rand"
	"strings"
	"testing"
)

// figure2 builds the hierarchy of Figure 2 of the paper:
//
//	class A { void m(); };
//	class B : A {};
//	class C : virtual B {};
//	class D : virtual B { void m(); };
//	class E : C, D {};
func figure2(t testing.TB) *Graph {
	b := NewBuilder()
	a := b.Class("A")
	bb := b.Class("B")
	c := b.Class("C")
	d := b.Class("D")
	e := b.Class("E")
	b.Base(bb, a, NonVirtual)
	b.Base(c, bb, Virtual)
	b.Base(d, bb, Virtual)
	b.Base(e, c, NonVirtual)
	b.Base(e, d, NonVirtual)
	b.Method(a, "m")
	b.Method(d, "m")
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildFigure2Shape(t *testing.T) {
	g := figure2(t)
	if g.NumClasses() != 5 {
		t.Errorf("NumClasses = %d, want 5", g.NumClasses())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if g.NumVirtualEdges() != 2 {
		t.Errorf("NumVirtualEdges = %d, want 2", g.NumVirtualEdges())
	}
	if g.NumMemberNames() != 1 {
		t.Errorf("NumMemberNames = %d, want 1", g.NumMemberNames())
	}
	if g.Size() != 10 {
		t.Errorf("Size = %d, want 10", g.Size())
	}
	e := g.MustID("E")
	bases := g.DirectBases(e)
	if len(bases) != 2 || g.Name(bases[0].Base) != "C" || g.Name(bases[1].Base) != "D" {
		t.Errorf("DirectBases(E) wrong: %v", bases)
	}
	if bases[0].Kind != NonVirtual {
		t.Errorf("E : C should be non-virtual")
	}
}

func TestBaseClosure(t *testing.T) {
	g := figure2(t)
	a, bb, c, d, e := g.MustID("A"), g.MustID("B"), g.MustID("C"), g.MustID("D"), g.MustID("E")
	for _, tc := range []struct {
		base, derived ClassID
		want          bool
	}{
		{a, bb, true}, {a, c, true}, {a, d, true}, {a, e, true},
		{bb, c, true}, {bb, d, true}, {bb, e, true},
		{c, e, true}, {d, e, true},
		{e, a, false}, {c, d, false}, {d, c, false}, {a, a, false},
	} {
		if got := g.IsBase(tc.base, tc.derived); got != tc.want {
			t.Errorf("IsBase(%s, %s) = %v, want %v", g.Name(tc.base), g.Name(tc.derived), got, tc.want)
		}
	}
}

// The paper's definition: X is a virtual base of Y iff some path
// X → Y *starts* with a virtual edge. In Figure 2, B is a virtual base
// of C, D and E; A is NOT a virtual base of anything (the only edge
// out of A is non-virtual), even though paths A→E pass through a
// virtual edge later.
func TestVirtualBaseClosureFirstEdgeRule(t *testing.T) {
	g := figure2(t)
	a, bb, c, d, e := g.MustID("A"), g.MustID("B"), g.MustID("C"), g.MustID("D"), g.MustID("E")
	for _, tc := range []struct {
		base, derived ClassID
		want          bool
	}{
		{bb, c, true}, {bb, d, true}, {bb, e, true},
		{a, bb, false}, {a, c, false}, {a, d, false}, {a, e, false},
		{c, e, false}, {d, e, false}, {bb, a, false},
	} {
		if got := g.IsVirtualBase(tc.base, tc.derived); got != tc.want {
			t.Errorf("IsVirtualBase(%s, %s) = %v, want %v", g.Name(tc.base), g.Name(tc.derived), got, tc.want)
		}
	}
	// Ω is never a virtual base and never has virtual bases.
	if g.IsVirtualBase(Omega, e) || g.IsVirtualBase(bb, Omega) {
		t.Error("Omega should never participate in IsVirtualBase")
	}
}

func TestVirtualBaseMixedPaths(t *testing.T) {
	// S → (virtual) A → (non-virtual) B: S is a virtual base of B
	// because the path S→A→B starts with the virtual edge S→A.
	b := NewBuilder()
	s := b.Class("S")
	a := b.Class("A")
	bb := b.Class("B")
	b.Base(a, s, Virtual)
	b.Base(bb, a, NonVirtual)
	g := b.MustBuild()
	if !g.IsVirtualBase(s, a) {
		t.Error("S should be a virtual base of A")
	}
	if !g.IsVirtualBase(s, bb) {
		t.Error("S should be a virtual base of B (path starts virtual)")
	}
	if g.IsVirtualBase(a, bb) {
		t.Error("A should not be a virtual base of B")
	}
}

func TestTopoOrderRespectsBases(t *testing.T) {
	g := figure2(t)
	order := g.Topo()
	if len(order) != g.NumClasses() {
		t.Fatalf("topo length %d", len(order))
	}
	for _, d := range order {
		for _, e := range g.DirectBases(d) {
			if g.TopoPos(e.Base) >= g.TopoPos(d) {
				t.Errorf("base %s not before derived %s", g.Name(e.Base), g.Name(d))
			}
		}
	}
}

func TestRootsAndLeaves(t *testing.T) {
	g := figure2(t)
	roots := g.Roots()
	if len(roots) != 1 || g.Name(roots[0]) != "A" {
		t.Errorf("Roots = %v", roots)
	}
	leaves := g.Leaves()
	if len(leaves) != 1 || g.Name(leaves[0]) != "E" {
		t.Errorf("Leaves = %v", leaves)
	}
}

func TestMembers(t *testing.T) {
	g := figure2(t)
	m := g.MustMemberID("m")
	a, bb, d := g.MustID("A"), g.MustID("B"), g.MustID("D")
	if !g.Declares(a, m) || !g.Declares(d, m) {
		t.Error("A and D should declare m")
	}
	if g.Declares(bb, m) {
		t.Error("B should not declare m")
	}
	mem, ok := g.DeclaredMember(d, m)
	if !ok || mem.Name != "m" || mem.Kind != Method || mem.StaticForLookup() {
		t.Errorf("DeclaredMember(D, m) = %+v, %v", mem, ok)
	}
	if _, ok := g.MemberID("nope"); ok {
		t.Error("unknown member name should not resolve")
	}
	if g.MemberName(m) != "m" {
		t.Errorf("MemberName = %q", g.MemberName(m))
	}
}

func TestStaticForLookup(t *testing.T) {
	for _, tc := range []struct {
		m    Member
		want bool
	}{
		{Member{Name: "f", Kind: Method}, false},
		{Member{Name: "f", Kind: Field}, false},
		{Member{Name: "f", Kind: Method, Static: true}, true},
		{Member{Name: "f", Kind: Field, Static: true}, true},
		{Member{Name: "T", Kind: TypeName}, true},
		{Member{Name: "E", Kind: Enumerator}, true},
	} {
		if got := tc.m.StaticForLookup(); got != tc.want {
			t.Errorf("StaticForLookup(%+v) = %v, want %v", tc.m, got, tc.want)
		}
	}
}

func TestBuilderRejectsCycle(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	y := b.Class("Y")
	b.Base(y, x, NonVirtual)
	b.Base(x, y, NonVirtual)
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestBuilderRejectsSelfBase(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	b.Base(x, x, NonVirtual)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-inheritance not rejected")
	}
}

func TestBuilderRejectsDuplicateDirectBase(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	y := b.Class("Y")
	b.Base(y, x, NonVirtual)
	b.Base(y, x, Virtual)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate direct base not rejected")
	}
}

func TestBuilderRejectsDuplicateMember(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	b.Method(x, "m")
	b.Method(x, "m")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate member not rejected")
	}
}

func TestBuilderRejectsEmptyNames(t *testing.T) {
	b := NewBuilder()
	b.Class("")
	if _, err := b.Build(); err == nil {
		t.Fatal("empty class name not rejected")
	}
	b2 := NewBuilder()
	x := b2.Class("X")
	b2.Member(x, Member{Name: ""})
	if _, err := b2.Build(); err == nil {
		t.Fatal("empty member name not rejected")
	}
}

func TestBuilderUnknownIDs(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	b.Base(x, ClassID(99), NonVirtual)
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown base id not rejected")
	}
	b2 := NewBuilder()
	b2.Member(ClassID(5), Member{Name: "m"})
	if _, err := b2.Build(); err == nil {
		t.Fatal("unknown class id in Member not rejected")
	}
}

func TestClassIsIdempotent(t *testing.T) {
	b := NewBuilder()
	x1 := b.Class("X")
	x2 := b.Class("X")
	if x1 != x2 {
		t.Errorf("Class(X) twice gave %d and %d", x1, x2)
	}
	g := b.MustBuild()
	if g.NumClasses() != 1 {
		t.Errorf("NumClasses = %d", g.NumClasses())
	}
}

// Reference closure by DFS over explicit paths, to check the bitset
// recurrences on random DAGs.
func refClosures(g *Graph) (base, virt map[[2]ClassID]bool) {
	base = map[[2]ClassID]bool{}
	virt = map[[2]ClassID]bool{}
	// walk all paths from every class downward (base → derived).
	var walk func(start, cur ClassID, firstVirtual bool, started bool)
	walk = func(start, cur ClassID, firstVirtual bool, started bool) {
		if started {
			base[[2]ClassID{start, cur}] = true
			if firstVirtual {
				virt[[2]ClassID{start, cur}] = true
			}
		}
		for _, d := range g.DirectDerived(cur) {
			// find the edge kind cur → d
			for _, e := range g.DirectBases(d) {
				if e.Base == cur {
					fv := firstVirtual
					if !started {
						fv = e.Kind == Virtual
					}
					walk(start, d, fv, true)
				}
			}
		}
	}
	for i := 0; i < g.NumClasses(); i++ {
		walk(ClassID(i), ClassID(i), false, false)
	}
	return base, virt
}

func randomGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder()
	ids := make([]ClassID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.Class("C" + string(rune('A'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 1; i < n; i++ {
		nbases := rng.Intn(3)
		seen := map[int]bool{}
		for j := 0; j < nbases; j++ {
			base := rng.Intn(i)
			if seen[base] {
				continue
			}
			seen[base] = true
			kind := NonVirtual
			if rng.Intn(3) == 0 {
				kind = Virtual
			}
			b.Base(ids[i], ids[base], kind)
		}
	}
	return b.MustBuild()
}

func TestClosuresMatchPathDFSOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		g := randomGraph(rng, 3+rng.Intn(12))
		base, virt := refClosures(g)
		n := g.NumClasses()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				bx, by := ClassID(x), ClassID(y)
				if got, want := g.IsBase(bx, by), base[[2]ClassID{bx, by}]; got != want {
					t.Fatalf("iter %d: IsBase(%s,%s)=%v want %v", iter, g.Name(bx), g.Name(by), got, want)
				}
				if got, want := g.IsVirtualBase(bx, by), virt[[2]ClassID{bx, by}]; got != want {
					t.Fatalf("iter %d: IsVirtualBase(%s,%s)=%v want %v", iter, g.Name(bx), g.Name(by), got, want)
				}
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := figure2(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "fig2"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`digraph "fig2"`,
		`"B" -> "C" [style=dashed];`,
		`"A" -> "B" [style=solid];`,
		`"C" -> "E" [style=solid];`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteSource(t *testing.T) {
	g := figure2(t)
	var sb strings.Builder
	if err := g.WriteSource(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"struct A {",
		"void m();",
		"struct C : virtual B {",
		"struct E : C, D {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("source missing %q in:\n%s", want, out)
		}
	}
	// A must be declared before B, B before C.
	if strings.Index(out, "struct A") > strings.Index(out, "struct B") {
		t.Error("declaration order violates topo order")
	}
}

func TestMemberSourceForms(t *testing.T) {
	for _, tc := range []struct {
		m    Member
		want string
	}{
		{Member{Name: "f", Kind: Method}, "void f();"},
		{Member{Name: "f", Kind: Method, Static: true}, "static void f();"},
		{Member{Name: "f", Kind: Method, Virtual: true}, "virtual void f();"},
		{Member{Name: "x", Kind: Field}, "int x;"},
		{Member{Name: "x", Kind: Field, Static: true}, "static int x;"},
		{Member{Name: "T", Kind: TypeName}, "typedef int T;"},
		{Member{Name: "K", Kind: Enumerator}, "enum { K };"},
	} {
		if got := memberSource(tc.m); got != tc.want {
			t.Errorf("memberSource(%+v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := figure2(t)
	s := g.ComputeStats()
	if s.Classes != 5 || s.Edges != 5 || s.VirtualEdges != 2 || s.MemberNames != 1 ||
		s.Declarations != 2 || s.Roots != 1 || s.Leaves != 1 || s.MaxBases != 2 || s.Depth != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if !strings.Contains(s.String(), "|N|=5") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestKindAndMemberKindStrings(t *testing.T) {
	if Virtual.String() != "virtual" || NonVirtual.String() != "non-virtual" {
		t.Error("Kind.String wrong")
	}
	for k, want := range map[MemberKind]string{
		Method: "method", Field: "field", TypeName: "type", Enumerator: "enumerator",
	} {
		if k.String() != want {
			t.Errorf("MemberKind(%d).String = %q", k, k.String())
		}
	}
}

func TestMustPanics(t *testing.T) {
	g := figure2(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustID should panic on unknown class")
			}
		}()
		g.MustID("Nope")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustMemberID should panic on unknown member")
			}
		}()
		g.MustMemberID("nope")
	}()
}

func TestValid(t *testing.T) {
	g := figure2(t)
	if !g.Valid(0) || !g.Valid(ClassID(g.NumClasses()-1)) {
		t.Error("valid ids reported invalid")
	}
	if g.Valid(Omega) || g.Valid(ClassID(g.NumClasses())) {
		t.Error("invalid ids reported valid")
	}
}

func TestEdge(t *testing.T) {
	b := NewBuilder()
	s := b.Class("S")
	a := b.Class("A")
	c := b.Class("C")
	b.Base(a, s, Virtual)
	b.Base(c, a, NonVirtual)
	g := b.MustBuild()

	if k, ok := g.Edge(s, a); !ok || k != Virtual {
		t.Errorf("Edge(S, A) = %v %v, want Virtual true", k, ok)
	}
	if k, ok := g.Edge(a, c); !ok || k != NonVirtual {
		t.Errorf("Edge(A, C) = %v %v, want NonVirtual true", k, ok)
	}
	if _, ok := g.Edge(s, c); ok {
		t.Error("Edge(S, C) should not exist (indirect only)")
	}
	if _, ok := g.Edge(c, a); ok {
		t.Error("Edge(C, A) should not exist (wrong direction)")
	}
}
