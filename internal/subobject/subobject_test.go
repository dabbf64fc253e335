package subobject

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/paths"
)

func build(t testing.TB, g *chg.Graph, name string) *Graph {
	t.Helper()
	sg, err := Build(g, g.MustID(name), 0)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return sg
}

// Figure 1(c): the subobject graph of E under non-virtual inheritance
// has 7 nodes, with two distinct A subobjects.
func TestFigure1SubobjectGraph(t *testing.T) {
	g := hiergen.Figure1()
	sg := build(t, g, "E")
	if sg.NumSubobjects() != 7 {
		t.Errorf("Figure 1: %d subobjects, want 7", sg.NumSubobjects())
	}
	if got := len(sg.SubobjectsOfClass(g.MustID("A"))); got != 2 {
		t.Errorf("Figure 1: %d A subobjects, want 2", got)
	}
}

// Figure 2(c): with virtual inheritance the B (and hence A) subobject
// is shared; 5 nodes, one A subobject.
func TestFigure2SubobjectGraph(t *testing.T) {
	g := hiergen.Figure2()
	sg := build(t, g, "E")
	if sg.NumSubobjects() != 5 {
		t.Errorf("Figure 2: %d subobjects, want 5", sg.NumSubobjects())
	}
	if got := len(sg.SubobjectsOfClass(g.MustID("A"))); got != 1 {
		t.Errorf("Figure 2: %d A subobjects, want 1", got)
	}
	// The shared B subobject is contained in both the C and D
	// subobjects.
	b := sg.SubobjectsOfClass(g.MustID("B"))
	if len(b) != 1 {
		t.Fatalf("want one B subobject")
	}
	parents := 0
	for i := 0; i < sg.NumSubobjects(); i++ {
		for _, c := range sg.Subobject(ID(i)).Contains {
			if c == b[0] {
				parents++
			}
		}
	}
	if parents != 2 {
		t.Errorf("shared B subobject has %d parents, want 2", parents)
	}
}

// Theorem 1: the nodes of the subobject graph are exactly the
// ≈-classes of paths ending at the complete class, and containment
// reachability coincides with path dominance.
func TestTheorem1Isomorphism(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *chg.Graph
		top  string
	}{
		{"Figure1", hiergen.Figure1(), "E"},
		{"Figure2", hiergen.Figure2(), "E"},
		{"Figure3", hiergen.Figure3(), "H"},
		{"Figure9", hiergen.Figure9(), "E"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			sg := build(t, g, tc.top)
			ecs := paths.Subobjects(g, g.MustID(tc.top), 0)
			if len(ecs) != sg.NumSubobjects() {
				t.Fatalf("node count %d != ≈-class count %d", sg.NumSubobjects(), len(ecs))
			}
			// Bijection on keys.
			keys := map[string]bool{}
			for _, k := range sg.Keys() {
				keys[k] = true
			}
			ids := make([]ID, len(ecs))
			for i, ec := range ecs {
				if !keys[ec.Key()] {
					t.Fatalf("≈-class %s missing from subobject graph", ec.Rep)
				}
				id, ok := sg.Find(ec.Rep)
				if !ok {
					t.Fatalf("Find(%s) failed", ec.Rep)
				}
				ids[i] = id
			}
			// Order isomorphism: dominance on paths == reachability.
			for i, a := range ecs {
				for j, b := range ecs {
					pd := paths.Dominates(a.Rep, b.Rep)
					sd := sg.Dominates(ids[i], ids[j])
					if pd != sd {
						t.Errorf("order mismatch: Dominates(%s,%s) paths=%v subobjects=%v",
							a.Rep, b.Rep, pd, sd)
					}
				}
			}
		})
	}
}

func TestLookupMatchesPathsOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *chg.Graph
	}{
		{"Figure1", hiergen.Figure1()},
		{"Figure2", hiergen.Figure2()},
		{"Figure3", hiergen.Figure3()},
		{"Figure9", hiergen.Figure9()},
	} {
		g := tc.g
		for c := 0; c < g.NumClasses(); c++ {
			sg := build(t, g, g.Name(chg.ClassID(c)))
			for m := 0; m < g.NumMemberNames(); m++ {
				want := paths.Lookup(g, chg.ClassID(c), chg.MemberID(m), 0)
				got := sg.Lookup(chg.MemberID(m))
				if got.Ambiguous != want.Ambiguous {
					t.Errorf("%s: lookup(%s, %s) ambiguity: subobject=%v oracle=%v",
						tc.name, g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)),
						got.Ambiguous, want.Ambiguous)
					continue
				}
				if !got.Ambiguous {
					if sg.Subobject(got.Target).Path.Key() != want.Subobject.Key() {
						t.Errorf("%s: lookup(%s, %s) targets differ", tc.name,
							g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)))
					}
				}
			}
		}
	}
}

func TestDynStatFigure2(t *testing.T) {
	g := hiergen.Figure2()
	sg := build(t, g, "E")
	m := g.MustMemberID("m")

	// dyn from any subobject resolves against the complete object: D::m.
	res, err := sg.Dyn(m, sg.Root())
	if err != nil || res.Ambiguous {
		t.Fatalf("Dyn: %v %+v", err, res)
	}
	if g.Name(sg.Class(res.Target)) != "D" {
		t.Errorf("Dyn target class = %s, want D", g.Name(sg.Class(res.Target)))
	}

	// stat from the (shared) B subobject: lookup(B, m) = A::m composed
	// into σ — the A subobject inside the shared B.
	b := sg.SubobjectsOfClass(g.MustID("B"))[0]
	res, err = sg.Stat(m, b)
	if err != nil || res.Ambiguous {
		t.Fatalf("Stat: %v %+v", err, res)
	}
	if g.Name(sg.Class(res.Target)) != "A" {
		t.Errorf("Stat target class = %s, want A", g.Name(sg.Class(res.Target)))
	}
	if !sg.Dominates(b, res.Target) {
		t.Error("Stat target should be contained in σ")
	}
}

func TestStatAmbiguous(t *testing.T) {
	g := hiergen.Figure1()
	sg := build(t, g, "E")
	res, err := sg.Stat(g.MustMemberID("m"), sg.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ambiguous {
		t.Error("stat(m, [E]) should be ambiguous in Figure 1")
	}
}

func TestDynStatInvalidSigma(t *testing.T) {
	g := hiergen.Figure1()
	sg := build(t, g, "E")
	if _, err := sg.Dyn(g.MustMemberID("m"), ID(-1)); err == nil {
		t.Error("Dyn should reject invalid σ")
	}
	if _, err := sg.Stat(g.MustMemberID("m"), ID(999)); err == nil {
		t.Error("Stat should reject invalid σ")
	}
}

func TestCountMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*chg.Graph{hiergen.Figure1(), hiergen.Figure2(), hiergen.Figure3(), hiergen.Figure9()}
	for i := 0; i < 25; i++ {
		graphs = append(graphs, hiergen.Random(hiergen.RandomConfig{
			Classes: 3 + rng.Intn(10), MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 2, MemberProb: 0.5, Seed: rng.Int63(),
		}))
	}
	for gi, g := range graphs {
		for c := 0; c < g.NumClasses(); c++ {
			sg, err := Build(g, chg.ClassID(c), 0)
			if err != nil {
				t.Fatalf("graph %d: %v", gi, err)
			}
			want := big.NewInt(int64(sg.NumSubobjects()))
			if got := Count(g, chg.ClassID(c)); got.Cmp(want) != 0 {
				t.Errorf("graph %d: Count(%s) = %v, want %v", gi, g.Name(chg.ClassID(c)), got, want)
			}
		}
	}
}

func TestCountDefnsMatchesOracle(t *testing.T) {
	for _, g := range []*chg.Graph{hiergen.Figure1(), hiergen.Figure2(), hiergen.Figure3(), hiergen.Figure9()} {
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				want := int64(len(paths.Defns(g, chg.ClassID(c), chg.MemberID(m), 0)))
				got := CountDefns(g, chg.ClassID(c), chg.MemberID(m))
				if got.Cmp(big.NewInt(want)) != 0 {
					t.Errorf("CountDefns(%s, %s) = %v, want %d",
						g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)), got, want)
				}
			}
		}
	}
}

func TestCountPathsMatchesEnumeration(t *testing.T) {
	g := hiergen.Figure3()
	counts := PathCounts(g, 1<<20)
	for c := 0; c < g.NumClasses(); c++ {
		want := len(paths.AllPathsTo(g, chg.ClassID(c), 0))
		if counts[c] != want {
			t.Errorf("PathCounts[%s] = %d, want %d", g.Name(chg.ClassID(c)), counts[c], want)
		}
	}
}

// TestCappedCountsSaturate checks PathCounts and Counts against the
// exact big-integer counts on the exponential diamond-chain family:
// exact up to the limit, limit+1 beyond it — including limits the
// counts overshoot by far more than 2x, and the largest int limit.
func TestCappedCountsSaturate(t *testing.T) {
	for _, kind := range []chg.Kind{chg.NonVirtual, chg.Virtual} {
		g := hiergen.DiamondChain(40, kind)
		for _, limit := range []int{1, 7, 100, 1 << 12, math.MaxInt - 1} {
			pc, sc := PathCounts(g, limit), Counts(g, limit)
			for c := 0; c < g.NumClasses(); c++ {
				id := chg.ClassID(c)
				capped := func(n *big.Int) int {
					if n.Cmp(big.NewInt(int64(limit))) > 0 {
						return limit + 1
					}
					return int(n.Int64())
				}
				if want := capped(big.NewInt(paths.CountPathsTo(g, id))); pc[c] != want {
					t.Errorf("%v limit %d: PathCounts[%s] = %d, want %d", kind, limit, g.Name(id), pc[c], want)
				}
				if want := capped(Count(g, id)); sc[c] != want {
					t.Errorf("%v limit %d: Counts[%s] = %d, want %d", kind, limit, g.Name(id), sc[c], want)
				}
			}
		}
	}
}

// The diamond-chain family has an exponential subobject graph
// (Section 7.1): k stacked non-virtual diamonds give 2^k paths to the
// apex but only 3k+1 classes.
func TestExponentialSubobjects(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10, 30} {
		g := hiergen.DiamondChain(k, chg.NonVirtual)
		top := hiergen.DiamondChainTop(g, k)
		want := new(big.Int).Lsh(big.NewInt(1), uint(k)) // 2^k A-subobjects… plus interior
		// Exact: subobject count of the top = sum over levels.
		got := Count(g, top)
		if got.Cmp(want) < 0 {
			t.Errorf("k=%d: Count = %v, want ≥ 2^%d = %v", k, got, k, want)
		}
		if g.NumClasses() != 3*k+1 {
			t.Errorf("k=%d: %d classes, want %d", k, g.NumClasses(), 3*k+1)
		}
	}
	// Virtual diamonds collapse to linear size.
	g := hiergen.DiamondChain(10, chg.Virtual)
	top := hiergen.DiamondChainTop(g, 10)
	if got := Count(g, top); got.Cmp(big.NewInt(1024)) >= 0 {
		t.Errorf("virtual diamond chain should be small, got %v", got)
	}
}

func TestBuildLimit(t *testing.T) {
	g := hiergen.DiamondChain(12, chg.NonVirtual)
	top := hiergen.DiamondChainTop(g, 12)
	if _, err := Build(g, top, 100); err == nil {
		t.Error("Build should fail when the node limit is exceeded")
	}
}

func TestBuildInvalidClass(t *testing.T) {
	g := hiergen.Figure1()
	if _, err := Build(g, chg.ClassID(-5), 0); err == nil {
		t.Error("Build should reject invalid class ids")
	}
}

func TestWriteDOT(t *testing.T) {
	g := hiergen.Figure2()
	sg := build(t, g, "E")
	var sb strings.Builder
	if err := sg.WriteDOT(&sb, "fig2-subobjects"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph \"fig2-subobjects\"") {
		t.Errorf("DOT header missing:\n%s", out)
	}
	if strings.Count(out, "label=") != 5 {
		t.Errorf("DOT should have 5 labelled nodes:\n%s", out)
	}
}

func TestPathsOfSharedSubobject(t *testing.T) {
	g := hiergen.Figure2()
	sg := build(t, g, "E")
	b := sg.SubobjectsOfClass(g.MustID("B"))[0]
	ps := sg.PathsOf(b)
	if len(ps) != 2 {
		t.Errorf("shared B subobject should have 2 paths, got %v", ps)
	}
}

func TestRootAndMemberAt(t *testing.T) {
	g := hiergen.Figure9()
	sg := build(t, g, "E")
	root := sg.Root()
	if g.Name(sg.Class(root)) != "E" {
		t.Errorf("root class = %s", g.Name(sg.Class(root)))
	}
	m := g.MustMemberID("m")
	if sg.MemberAt(root, m) {
		t.Error("E does not declare m")
	}
	c := sg.SubobjectsOfClass(g.MustID("C"))
	if len(c) != 1 || !sg.MemberAt(c[0], m) {
		t.Error("C subobject should declare m")
	}
}
