package gxx

import (
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// TestBackendFigure9 reproduces the paper's Figure 9 divergence
// through the Semantics interface: on lookup(E, m) the dominance
// kernel resolves red at C while the g++ backend reports a (false)
// ambiguity between A and B — as an ordinary cross-backend table
// diff, no bespoke harness.
func TestBackendFigure9(t *testing.T) {
	g := hiergen.Figure9()
	dom := core.BuildSemTable(core.NewKernel(g), 0)
	be := NewBackend(g, nil, 0)
	gxxT := core.BuildSemTable(be, 0)

	e, _ := g.ID("E")
	c, _ := g.ID("C")
	a, _ := g.ID("A")
	bb, _ := g.ID("B")
	m, _ := g.MemberID("m")

	dr := dom.Lookup(e, m)
	if !dr.Found() || dr.Class() != c {
		t.Fatalf("dominance E::m = %s, want red at C", dr.Format(g))
	}
	gr := gxxT.Lookup(e, m)
	if !gr.Ambiguous() {
		t.Fatalf("gxx E::m = %s, want reported-ambiguous", gr.Format(g))
	}
	blue := gr.Blue()
	if len(blue) != 2 || blue[0].L != a || blue[1].L != bb {
		t.Fatalf("gxx E::m conflict = %v, want classes A and B", blue)
	}

	// Everywhere else on Figure 9 the two backends agree on the
	// resolved class; E::m is the lone divergence.
	diverged := 0
	for cid := 0; cid < g.NumClasses(); cid++ {
		for mid := 0; mid < g.NumMemberNames(); mid++ {
			d := dom.Lookup(chg.ClassID(cid), chg.MemberID(mid))
			x := gxxT.Lookup(chg.ClassID(cid), chg.MemberID(mid))
			if d.Kind() != x.Kind() || (d.Found() && x.Found() && d.Class() != x.Class()) {
				diverged++
			}
		}
	}
	if diverged != 1 {
		t.Errorf("Figure 9: %d divergent cells, want exactly 1 (E::m)", diverged)
	}
}

// TestBackendMatchesDirectLookup cross-checks the backend's packed
// results against the raw Lookup outcomes on a hierarchy with
// resolutions, ambiguities, and absent members, lazily (one-member
// rows) and through the batched row fill.
func TestBackendMatchesDirectLookup(t *testing.T) {
	g := hiergen.Figure1()
	be := NewBackend(g, nil, 0)
	lazy := core.NewFor(be)
	tab := core.BuildSemTable(be, 0)
	for cid := 0; cid < g.NumClasses(); cid++ {
		for mid := 0; mid < g.NumMemberNames(); mid++ {
			c, m := chg.ClassID(cid), chg.MemberID(mid)
			want, err := LookupFresh(g, c, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			rr := lazy.Lookup(c, m)
			rt := tab.Lookup(c, m)
			if !rr.Equal(rt) {
				t.Errorf("%s::%s: lazy %s != table %s",
					g.Name(c), g.MemberName(m), rr.Format(g), rt.Format(g))
			}
			switch want.Outcome {
			case NotFound:
				if rr.Kind() != core.Undefined {
					t.Errorf("%s::%s: packed %s, scan not-found",
						g.Name(c), g.MemberName(m), rr.Format(g))
				}
			case Resolved:
				if !rr.Found() || rr.Class() != want.Class {
					t.Errorf("%s::%s: packed %s, scan resolved at %s",
						g.Name(c), g.MemberName(m), rr.Format(g), g.Name(want.Class))
				}
			case ReportedAmbiguous:
				if !rr.Ambiguous() {
					t.Errorf("%s::%s: packed %s, scan reported ambiguous",
						g.Name(c), g.MemberName(m), rr.Format(g))
				}
			}
		}
	}
}

// TestBackendOverLimit pins the FailKind path: a context class whose
// subobject graph exceeds the limit resolves to fail blaming that
// class, for every member, without panicking. A name the class cannot
// see is no member, so it stays Undefined, lazily as in the table.
func TestBackendOverLimit(t *testing.T) {
	// DiamondChain stacks non-virtual diamonds; subobject count grows
	// exponentially with depth. The unrelated U declares u, which the
	// apex cannot see.
	b := chg.NewBuilderFrom(hiergen.DiamondChain(12, chg.NonVirtual))
	b.Method(b.Class("U"), "u")
	g := b.MustBuild()
	be := NewBackend(g, nil, 64)
	c := hiergen.DiamondChainTop(g, 12)
	lazy := core.NewFor(be)
	tab := core.BuildSemTable(be, 0)
	for mid := 0; mid < g.NumMemberNames(); mid++ {
		m := chg.MemberID(mid)
		r := lazy.Lookup(c, m)
		switch {
		case g.MemberName(m) == "u":
			if r.Kind() != core.Undefined {
				t.Errorf("%s::u = %s, want undefined", g.Name(c), r.Format(g))
			}
		case !r.Failed() || r.Def().L != c:
			t.Errorf("%s::%s = %s, want fail blaming %s", g.Name(c), g.MemberName(m), r.Format(g), g.Name(c))
		}
		if !tab.Lookup(c, m).Equal(r) {
			t.Errorf("%s::%s: table %s, lazy %s", g.Name(c), g.MemberName(m),
				tab.Lookup(c, m).Format(g), r.Format(g))
		}
	}
}
