package semantics

import (
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/gxx"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/mro"
)

// TestLazyMatchesTableAllBackends pins the one resolve path of C3 and
// gxx: a lazily filled cell (core.NewFor, which fills one-member
// ResolveClass rows through core.FillRun) equals the whole-table cell
// (core.BuildSemTable) on every (class, member) pair, names a class
// cannot see included. Classes are queried in descending id, so fills
// recurse into bases that are not filled yet.
//
// A class C3 cannot linearize, or one whose subobject graph is over
// gxx's limit, fails every name in its row, and core alone decides
// which of those names are members. Every graph therefore gains an
// unrelated class U declaring a name no other class sees, and the test
// checks that the backends that can fail here (C3, and gxx at a limit
// of 16) do fail some class's row on a name the table says it does not
// see.
func TestLazyMatchesTableAllBackends(t *testing.T) {
	backends := []struct {
		name  string
		new   func(*chg.Graph) core.ClassResolver
		fails bool
	}{
		{"c3", func(g *chg.Graph) core.ClassResolver { return mro.New(g, nil) }, true},
		{"gxx", func(g *chg.Graph) core.ClassResolver { return gxx.NewBackend(g, nil, 0) }, false},
		{"gxx/16", func(g *chg.Graph) core.ClassResolver { return gxx.NewBackend(g, nil, 16) }, true},
	}
	graphs := []*chg.Graph{
		hiergen.Figure1(), hiergen.Figure2(), hiergen.Figure3(), hiergen.Figure9(),
		hiergen.DiamondChain(4, chg.NonVirtual), hiergen.DiamondChain(4, chg.Virtual),
		hiergen.Chain(12, true), hiergen.WideMI(6, true),
		hiergen.AmbiguousLadder(4, 2), hiergen.Realistic(3, 2),
		hiergen.SparseMembers(60, 400, 3, 17), orderConflict(),
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 24; i++ {
		graphs = append(graphs, hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(40), MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 1 + rng.Intn(120), MemberProb: 0.1,
			StaticProb: 0.2, Seed: rng.Int63(),
		}))
	}
	for i, g := range graphs {
		b := chg.NewBuilderFrom(g)
		b.Method(b.Class("U"), "u")
		graphs[i] = b.MustBuild()
	}

	for _, be := range backends {
		cells, mismatches, failedNonMembers := 0, 0, 0
		for gi, g := range graphs {
			tab := core.BuildSemTable(be.new(g), 0)
			r := be.new(g)
			lazy := core.NewFor(r)
			var row [1]core.Cell
			for c := g.NumClasses() - 1; c >= 0; c-- {
				for m := 0; m < g.NumMemberNames(); m++ {
					cid, mid := chg.ClassID(c), chg.MemberID(m)
					want, got := tab.Lookup(cid, mid), lazy.Lookup(cid, mid)
					cells++
					if !got.Equal(want) {
						if mismatches < 5 {
							t.Errorf("[%s] graph %d (%s, %s): lazy %s, table %s", be.name, gi,
								g.Name(cid), g.MemberName(mid), got.Format(g), want.Format(g))
						}
						mismatches++
					}
					if want.Kind() == core.Undefined {
						row[0] = 0
						r.ResolveClass(cid, []chg.MemberID{mid}, row[:])
						if row[0].Kind() == core.FailKind {
							failedNonMembers++
						}
					}
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("[%s] lazy differs from the table on %d of %d cells", be.name, mismatches, cells)
		}
		if be.fails && failedNonMembers == 0 {
			t.Errorf("[%s] no row failed a name its class cannot see; the graphs never reach core's membership rule", be.name)
		}
	}
}

// orderConflict is the classic C3 order disagreement: X(A, B) and
// Y(B, A), so Z(X, Y) and its derived W cannot linearize.
func orderConflict() *chg.Graph {
	b := chg.NewBuilder()
	a, bb := b.Class("A"), b.Class("B")
	x, y := b.Class("X"), b.Class("Y")
	z, w := b.Class("Z"), b.Class("W")
	b.Base(x, a, chg.NonVirtual)
	b.Base(x, bb, chg.NonVirtual)
	b.Base(y, bb, chg.NonVirtual)
	b.Base(y, a, chg.NonVirtual)
	b.Base(z, x, chg.NonVirtual)
	b.Base(z, y, chg.NonVirtual)
	b.Base(w, z, chg.NonVirtual)
	b.Method(a, "f")
	b.Method(x, "g")
	return b.MustBuild()
}
