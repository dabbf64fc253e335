package mro

import (
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// names maps a linearization back to class names for comparison
// against the published MROs.
func names(g *chg.Graph, order []chg.ClassID) []string {
	out := make([]string, len(order))
	for i, c := range order {
		out[i] = g.Name(c)
	}
	return out
}

func wantOrder(t *testing.T, g *chg.Graph, l *Linearization, class string, want ...string) {
	t.Helper()
	c, ok := g.ID(class)
	if !ok {
		t.Fatalf("no class %q", class)
	}
	order, ok := l.Order(c)
	if !ok {
		blame, _ := l.Failure(c)
		t.Fatalf("L(%s) failed to linearize (blame %s)", class, g.Name(blame))
	}
	got := names(g, order)
	if len(got) != len(want) {
		t.Fatalf("L(%s) = %v, want %v", class, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("L(%s) = %v, want %v", class, got, want)
		}
	}
}

// TestDiamond pins the canonical diamond: D(B, C), B(A), C(A).
// Python: D.__mro__ == (D, B, C, A, object) — without the implicit
// root, [D B C A].
func TestDiamond(t *testing.T) {
	b := chg.NewBuilder()
	a := b.Class("A")
	bb := b.Class("B")
	cc := b.Class("C")
	d := b.Class("D")
	b.Base(bb, a, chg.NonVirtual)
	b.Base(cc, a, chg.NonVirtual)
	b.Base(d, bb, chg.NonVirtual)
	b.Base(d, cc, chg.NonVirtual)
	b.Method(a, "f")
	b.Method(cc, "f")
	g := b.MustBuild()

	l := Linearize(g)
	wantOrder(t, g, l, "D", "D", "B", "C", "A")
	wantOrder(t, g, l, "B", "B", "A")

	// Dominance says D::f is ambiguous (neither A::f nor C::f
	// dominates through non-virtual edges is wrong — C::f vs A::f: C's
	// declaration hides A's along the C arm but not the B arm), while
	// C3 resolves it to C, the first declarer in [D B C A] after B
	// (which declares nothing). That asymmetry is the divergence the
	// dominance-vs-mro lint rule reports.
	f, _ := g.MemberID("f")
	r := core.NewFor(New(g, nil)).Lookup(d, f)
	if !r.Found() || g.Name(r.Class()) != "C" {
		t.Fatalf("C3 D::f = %s, want red at C", r.Format(g))
	}
}

// TestPython23Example pins the worked example from the Python 2.3 MRO
// paper (Simionato): Z(K1, K2, K3) over K1(A,B,C), K2(D,B,E), K3(D,A)
// with A..E all deriving from O.
// Published: L(Z) = [Z K1 K2 K3 D A B C E O].
func TestPython23Example(t *testing.T) {
	b := chg.NewBuilder()
	o := b.Class("O")
	mk := func(name string) chg.ClassID {
		c := b.Class(name)
		b.Base(c, o, chg.NonVirtual)
		return c
	}
	a := mk("A")
	bb := mk("B")
	cc := mk("C")
	d := mk("D")
	e := mk("E")
	k1 := b.Class("K1")
	b.Base(k1, a, chg.NonVirtual)
	b.Base(k1, bb, chg.NonVirtual)
	b.Base(k1, cc, chg.NonVirtual)
	k2 := b.Class("K2")
	b.Base(k2, d, chg.NonVirtual)
	b.Base(k2, bb, chg.NonVirtual)
	b.Base(k2, e, chg.NonVirtual)
	k3 := b.Class("K3")
	b.Base(k3, d, chg.NonVirtual)
	b.Base(k3, a, chg.NonVirtual)
	z := b.Class("Z")
	b.Base(z, k1, chg.NonVirtual)
	b.Base(z, k2, chg.NonVirtual)
	b.Base(z, k3, chg.NonVirtual)
	g := b.MustBuild()

	l := Linearize(g)
	wantOrder(t, g, l, "K1", "K1", "A", "B", "C", "O")
	wantOrder(t, g, l, "K2", "K2", "D", "B", "E", "O")
	wantOrder(t, g, l, "K3", "K3", "D", "A", "O")
	wantOrder(t, g, l, "Z", "Z", "K1", "K2", "K3", "D", "A", "B", "C", "E", "O")
	_ = z
}

// TestBoatExample pins the Boat/DayBoat hierarchy from the Python 2.3
// MRO paper's serious-order-disagreement example:
// Pedalo(PedalWheelBoat, SmallCatamaran), PedalWheelBoat(EngineLess,
// WheelBoat), SmallCatamaran(SmallMultihull), EngineLess(DayBoat),
// SmallMultihull(DayBoat), DayBoat(Boat), WheelBoat(Boat).
// C3: L(Pedalo) = [Pedalo PedalWheelBoat EngineLess SmallCatamaran
// SmallMultihull DayBoat WheelBoat Boat].
func TestBoatExample(t *testing.T) {
	b := chg.NewBuilder()
	boat := b.Class("Boat")
	day := b.Class("DayBoat")
	wheel := b.Class("WheelBoat")
	engineless := b.Class("EngineLess")
	multi := b.Class("SmallMultihull")
	pwb := b.Class("PedalWheelBoat")
	cat := b.Class("SmallCatamaran")
	pedalo := b.Class("Pedalo")
	b.Base(day, boat, chg.NonVirtual)
	b.Base(wheel, boat, chg.NonVirtual)
	b.Base(engineless, day, chg.NonVirtual)
	b.Base(multi, day, chg.NonVirtual)
	b.Base(pwb, engineless, chg.NonVirtual)
	b.Base(pwb, wheel, chg.NonVirtual)
	b.Base(cat, multi, chg.NonVirtual)
	b.Base(pedalo, pwb, chg.NonVirtual)
	b.Base(pedalo, cat, chg.NonVirtual)
	b.Method(day, "scuttle")
	b.Method(wheel, "scuttle")
	g := b.MustBuild()

	l := Linearize(g)
	wantOrder(t, g, l, "Pedalo",
		"Pedalo", "PedalWheelBoat", "EngineLess", "SmallCatamaran",
		"SmallMultihull", "DayBoat", "WheelBoat", "Boat")

	// Under C3, Pedalo.scuttle comes from DayBoat (before WheelBoat);
	// dominance finds neither declaration dominant.
	m, _ := g.MemberID("scuttle")
	if r := core.NewFor(New(g, nil)).Lookup(pedalo, m); !r.Found() || r.Class() != day {
		t.Fatalf("C3 Pedalo::scuttle = %s, want red at DayBoat", r.Format(g))
	}
	dom := core.New(g)
	if r := dom.Lookup(pedalo, m); !r.Ambiguous() {
		t.Fatalf("dominance Pedalo::scuttle = %s, want blue", r.Format(g))
	}
}

// TestFailsToLinearize pins the classic order-disagreement failure:
// X(A, B), Y(B, A), Z(X, Y) — X demands A before B, Y demands B
// before A, so Z cannot linearize. X and Y themselves are fine.
func TestFailsToLinearize(t *testing.T) {
	b := chg.NewBuilder()
	a := b.Class("A")
	bb := b.Class("B")
	x := b.Class("X")
	y := b.Class("Y")
	z := b.Class("Z")
	w := b.Class("W") // inherits the failure
	b.Base(x, a, chg.NonVirtual)
	b.Base(x, bb, chg.NonVirtual)
	b.Base(y, bb, chg.NonVirtual)
	b.Base(y, a, chg.NonVirtual)
	b.Base(z, x, chg.NonVirtual)
	b.Base(z, y, chg.NonVirtual)
	b.Base(w, z, chg.NonVirtual)
	b.Method(a, "f")
	g := b.MustBuild()

	l := Linearize(g)
	wantOrder(t, g, l, "X", "X", "A", "B")
	wantOrder(t, g, l, "Y", "Y", "B", "A")

	blame, failed := l.Failure(z)
	if !failed || blame != z {
		t.Fatalf("Z: failed=%v blame=%v, want origin failure at Z", failed, blame)
	}
	heads := l.BlockedHeads(z)
	if len(heads) == 0 {
		t.Fatal("Z: no blocked-heads witness")
	}
	for _, h := range heads {
		if h != a && h != bb {
			t.Errorf("unexpected blocked head %s", g.Name(h))
		}
	}
	// W fails too, blaming Z, with no witness of its own.
	blame, failed = l.Failure(w)
	if !failed || blame != z {
		t.Fatalf("W: failed=%v blame=%s, want inherited failure blaming Z", failed, g.Name(blame))
	}
	if l.BlockedHeads(w) != nil {
		t.Error("W: inherited failure should carry no blocked heads")
	}

	// Lookups on Z are first-class failures, not panics.
	c3 := core.NewFor(New(g, nil))
	f, _ := g.MemberID("f")
	r := c3.Lookup(z, f)
	if !r.Failed() || r.Def().L != z {
		t.Fatalf("C3 Z::f = %s, want fail blaming Z", r.Format(g))
	}
	if r.Kind().String() != "fail" {
		t.Fatalf("FailKind renders %q", r.Kind().String())
	}
	// X still answers: first declarer in [X A B] is A.
	if r := c3.Lookup(x, f); !r.Found() || r.Class() != a {
		t.Fatalf("C3 X::f = %s, want red at A", r.Format(g))
	}
}

// TestResolveClassMatchesLazy cross-checks the batched row fill
// against lazy one-member rows (core.NewFor) on every (class, member)
// pair of a mixed hierarchy. Z fails to linearize, so its row fails
// every name; the lazy fill must keep the failure for Z's members only,
// and answer Undefined for u, which only the unrelated U declares.
func TestResolveClassMatchesLazy(t *testing.T) {
	b := chg.NewBuilder()
	a := b.Class("A")
	bb := b.Class("B")
	x := b.Class("X")
	y := b.Class("Y")
	z := b.Class("Z")
	u := b.Class("U")
	b.Base(x, a, chg.NonVirtual)
	b.Base(x, bb, chg.NonVirtual)
	b.Base(y, bb, chg.NonVirtual)
	b.Base(y, a, chg.NonVirtual)
	b.Base(z, x, chg.NonVirtual)
	b.Base(z, y, chg.NonVirtual)
	b.Method(a, "f")
	b.Method(bb, "f")
	b.Method(bb, "g")
	b.Method(x, "h")
	b.Method(u, "u")
	g := b.MustBuild()

	be := New(g, nil)
	tab := core.BuildSemTable(be, 0)
	lazy := core.NewFor(be)
	for c := g.NumClasses() - 1; c >= 0; c-- {
		for m := 0; m < g.NumMemberNames(); m++ {
			cid, mid := chg.ClassID(c), chg.MemberID(m)
			want := lazy.Lookup(cid, mid)
			got := tab.Lookup(cid, mid)
			if !got.Equal(want) {
				t.Errorf("%s::%s: table %s, lazy %s",
					g.Name(cid), g.MemberName(mid), got.Format(g), want.Format(g))
			}
		}
	}
	if r := lazy.Lookup(z, g.MustMemberID("u")); r.Kind() != core.Undefined {
		t.Errorf("Z::u = %s, want undefined", r.Format(g))
	}
	if r := lazy.Lookup(z, g.MustMemberID("h")); !r.Failed() {
		t.Errorf("Z::h = %s, want fail", r.Format(g))
	}
}
