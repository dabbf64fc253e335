package hiergen

import (
	"fmt"
	"testing"

	"cpplookup/internal/chg"
)

func TestFigureShapes(t *testing.T) {
	for _, tc := range []struct {
		name            string
		g               *chg.Graph
		classes, edges  int
		virtuals, decls int
	}{
		{"fig1", Figure1(), 5, 5, 0, 2},
		{"fig2", Figure2(), 5, 5, 2, 2},
		{"fig3", Figure3(), 8, 9, 2, 5},
		{"fig9", Figure9(), 6, 8, 6, 4},
	} {
		s := tc.g.ComputeStats()
		if s.Classes != tc.classes || s.Edges != tc.edges ||
			s.VirtualEdges != tc.virtuals || s.Declarations != tc.decls {
			t.Errorf("%s: stats %s", tc.name, s)
		}
	}
}

func TestDiamondChainShape(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		g := DiamondChain(k, chg.NonVirtual)
		if g.NumClasses() != 3*k+1 || g.NumEdges() != 4*k {
			t.Errorf("k=%d: |N|=%d |E|=%d", k, g.NumClasses(), g.NumEdges())
		}
		top := DiamondChainTop(g, k)
		if len(g.DirectDerived(top)) != 0 {
			t.Errorf("k=%d: top should be a leaf", k)
		}
		if g.NumVirtualEdges() != 0 {
			t.Errorf("k=%d: non-virtual family has %d virtual edges", k, g.NumVirtualEdges())
		}
	}
	gv := DiamondChain(3, chg.Virtual)
	if gv.NumVirtualEdges() != 6 {
		t.Errorf("virtual family should have 2k virtual edges, got %d", gv.NumVirtualEdges())
	}
}

func TestChainShape(t *testing.T) {
	g := Chain(10, true)
	if g.NumClasses() != 10 || g.NumEdges() != 9 {
		t.Errorf("chain stats: %s", g.ComputeStats())
	}
	if got := g.ComputeStats().Depth; got != 9 {
		t.Errorf("depth = %d", got)
	}
	if ChainTop(g, 10) != g.MustID("C9") {
		t.Error("ChainTop wrong")
	}
	// Without override only one declaration.
	if Chain(10, false).ComputeStats().Declarations != 1 {
		t.Error("no-override chain should have 1 declaration")
	}
}

func TestWideMIShape(t *testing.T) {
	g := WideMI(16, true)
	if g.NumClasses() != 17 || g.NumEdges() != 16 {
		t.Errorf("wide stats: %s", g.ComputeStats())
	}
	if g.ComputeStats().MaxBases != 16 {
		t.Errorf("MaxBases = %d", g.ComputeStats().MaxBases)
	}
	if g.ComputeStats().Declarations != 16 {
		t.Error("conflicting WideMI should declare m in every base")
	}
	if WideMI(16, false).ComputeStats().Declarations != 1 {
		t.Error("non-conflicting WideMI should declare m once")
	}
}

func TestAmbiguousLadderShape(t *testing.T) {
	g := AmbiguousLadder(5, 3)
	top := AmbiguousLadderTop(g, 5)
	if g.Name(top) != "R4" {
		t.Errorf("top = %s", g.Name(top))
	}
	// 3 joint columns of 5 classes each (VX, VY, X, Y, J) + 5 rungs.
	if g.NumClasses() != 5*3+5 {
		t.Errorf("|N| = %d", g.NumClasses())
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{
		Classes: 30, MaxBases: 3, VirtualProb: 0.4,
		MemberNames: 4, MemberProb: 0.4, StaticProb: 0.2, Seed: 12345,
	}
	g1 := Random(cfg)
	g2 := Random(cfg)
	s1, s2 := g1.ComputeStats(), g2.ComputeStats()
	if s1 != s2 {
		t.Errorf("same seed, different stats: %s vs %s", s1, s2)
	}
	// And actually identical edges.
	for c := 0; c < g1.NumClasses(); c++ {
		b1, b2 := g1.DirectBases(chg.ClassID(c)), g2.DirectBases(chg.ClassID(c))
		if len(b1) != len(b2) {
			t.Fatalf("class %d: base count differs", c)
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("class %d: base %d differs", c, i)
			}
		}
	}
	// A different seed must differ somewhere (overwhelmingly likely).
	cfg.Seed = 54321
	if Random(cfg).ComputeStats() == s1 {
		t.Error("different seeds should give different hierarchies")
	}
}

func TestRandomIsAcyclicAndValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := Random(RandomConfig{
			Classes: 40, MaxBases: 4, VirtualProb: 0.5,
			MemberNames: 3, MemberProb: 0.5, Seed: seed,
		})
		// Build succeeded → acyclic. Topo covers all classes.
		if len(g.Topo()) != g.NumClasses() {
			t.Fatalf("seed %d: topo incomplete", seed)
		}
	}
}

func TestRealisticShape(t *testing.T) {
	g := Realistic(4, 3)
	// 1 root + per depth: 2 siblings + 1 join + 3 chain = 6.
	if g.NumClasses() != 1+4*6 {
		t.Errorf("|N| = %d", g.NumClasses())
	}
	if g.NumVirtualEdges() != 8 {
		t.Errorf("|Ev| = %d, want 2 per layer", g.NumVirtualEdges())
	}
	top := RealisticTop(g, 4, 3)
	if g.Name(top) != "stream3_2" {
		t.Errorf("top = %s", g.Name(top))
	}
	if g2 := Realistic(2, 0); g2.Name(RealisticTop(g2, 2, 0)) != "iostream1" {
		t.Error("chainless top wrong")
	}
}

func TestSparseMembersDeterministic(t *testing.T) {
	g1 := SparseMembers(60, 150, 3, 99)
	g2 := SparseMembers(60, 150, 3, 99)
	s1, s2 := g1.ComputeStats(), g2.ComputeStats()
	if s1 != s2 {
		t.Errorf("same seed, different stats: %s vs %s", s1, s2)
	}
	for c := 0; c < g1.NumClasses(); c++ {
		b1, b2 := g1.DirectBases(chg.ClassID(c)), g2.DirectBases(chg.ClassID(c))
		if len(b1) != len(b2) {
			t.Fatalf("class %d: base count differs", c)
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("class %d: base %d differs", c, i)
			}
		}
		m1, m2 := g1.DeclaredMembers(chg.ClassID(c)), g2.DeclaredMembers(chg.ClassID(c))
		if len(m1) != len(m2) {
			t.Fatalf("class %d: member count differs", c)
		}
		for i := range m1 {
			if m1[i].Name != m2[i].Name {
				t.Fatalf("class %d: member %d differs", c, i)
			}
		}
	}
	if SparseMembers(60, 150, 3, 100).ComputeStats() == s1 {
		t.Error("different seed produced an identical hierarchy")
	}
}

func TestSparseMembersShape(t *testing.T) {
	const classes, members, defs = 40, 100, 2
	g := SparseMembers(classes, members, defs, 7)
	if g.NumClasses() != classes {
		t.Fatalf("NumClasses = %d, want %d", g.NumClasses(), classes)
	}
	if g.NumMemberNames() != members {
		t.Fatalf("NumMemberNames = %d, want %d", g.NumMemberNames(), members)
	}
	// Every member name is declared in exactly defsPerMember classes.
	counts := make(map[string]int)
	for c := 0; c < classes; c++ {
		for _, m := range g.DeclaredMembers(chg.ClassID(c)) {
			counts[m.Name]++
		}
	}
	if len(counts) != members {
		t.Fatalf("declared %d distinct names, want %d", len(counts), members)
	}
	for name, n := range counts {
		if n != defs {
			t.Errorf("member %s declared %d times, want %d", name, n, defs)
		}
	}
	// defsPerMember is clamped to the class count.
	g2 := SparseMembers(3, 5, 10, 1)
	for m := 0; m < g2.NumMemberNames(); m++ {
		n := 0
		for c := 0; c < g2.NumClasses(); c++ {
			if g2.Declares(chg.ClassID(c), chg.MemberID(m)) {
				n++
			}
		}
		if n != 3 {
			t.Errorf("clamped member %d declared %d times, want 3", m, n)
		}
	}
}

// Giant must be deterministic, hit its class budget exactly, keep the
// declaration budget bounded, and produce the advertised shape: a fat
// interface layer, virtual edges, deep towers, and a power-law member
// distribution (hot heads declared in many classes).
func TestGiantShape(t *testing.T) {
	cfg := GiantDefaults(3000)
	g := Giant(cfg)
	g2 := Giant(cfg)
	if g.NumClasses() != cfg.Classes {
		t.Fatalf("classes = %d, want %d", g.NumClasses(), cfg.Classes)
	}
	if g2.NumClasses() != g.NumClasses() || g2.NumMemberNames() != g.NumMemberNames() {
		t.Fatal("Giant is not deterministic across calls")
	}
	decls, virt, maxBases := 0, 0, 0
	declsPer := make([]int, g.NumMemberNames())
	for c := 0; c < g.NumClasses(); c++ {
		id := chg.ClassID(c)
		ms := g.DeclaredMembers(id)
		decls += len(ms)
		for _, m := range as(ms) {
			declsPer[m]++
		}
		bs := g.DirectBases(id)
		if len(bs) > maxBases {
			maxBases = len(bs)
		}
		for _, e := range bs {
			if e.Base >= id {
				t.Fatalf("class %d derives from later class %d", c, e.Base)
			}
			if e.Kind == chg.Virtual {
				virt++
			}
		}
	}
	if bound := cfg.Interfaces*cfg.FatWidth + cfg.Decls; decls > bound {
		t.Fatalf("decls = %d exceeds bound %d", decls, bound)
	}
	if virt == 0 {
		t.Fatal("no virtual edges generated")
	}
	// Power law: the hottest name must be declared in far more classes
	// than the median (Zipf head vs tail).
	hot := 0
	for _, d := range declsPer {
		if d > hot {
			hot = d
		}
	}
	if hot < 20 {
		t.Fatalf("hottest member declared in only %d classes; distribution not power-law", hot)
	}
	// Deterministic ids: member m17 must be id 17 (pre-interning).
	if id, ok := g.MemberID("m17"); !ok || id != 17 {
		t.Fatalf("member id drift: m17 -> %d, %v", id, ok)
	}
}

// as maps declared members to their ids via the graph-independent name
// convention m<k>.
func as(ms []chg.Decl) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		var k int
		fmt.Sscanf(m.Name, "m%d", &k)
		out[i] = k
	}
	return out
}
