package incremental

import (
	"fmt"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

func method(name string) chg.Member { return chg.Member{Name: name, Kind: chg.Method} }

// coneOf returns the classes in member name's invalidation cone since
// generation since (nil when no edit of that name falls in the window).
func coneOf(t *testing.T, w *Workspace, since uint64, name string) []int {
	t.Helper()
	cones, ok := w.InvalidationConeSince(since)
	if !ok {
		t.Fatalf("window since generation %d is unanswerable", since)
	}
	for _, mc := range cones {
		if w.memberNames[mc.Member] == name {
			return mc.Classes.Elems()
		}
	}
	return nil
}

// Unrelated edits must not invalidate B's entries.
func TestCacheSurvivesUnrelatedEdits(t *testing.T) {
	w := New()
	a, _ := w.AddClass("A", nil)
	w.AddMember(a, method("m"))
	b, _ := w.AddClass("B", []BaseDecl{{Class: a}})
	other, _ := w.AddClass("Other", nil)
	since := w.Generation()

	// Edit an unrelated class with an unrelated member, then with the
	// same member name: neither cone reaches A or B.
	if err := w.AddMember(other, method("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddMember(other, method("m")); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]int{int(other)})
	for _, name := range []string{"x", "m"} {
		if got := coneOf(t, w, since, name); fmt.Sprint(got) != want {
			t.Errorf("cone for %s = %v, want only Other %s (B is %d)", name, got, want, b)
		}
	}
}

// Edits invalidate exactly the descendant cone for that member name.
func TestInvalidationCone(t *testing.T) {
	w := New()
	root, _ := w.AddClass("Root", nil)
	w.AddMember(root, method("m"))
	w.AddMember(root, method("n"))
	left, _ := w.AddClass("Left", []BaseDecl{{Class: root}})
	right, _ := w.AddClass("Right", []BaseDecl{{Class: root}})
	leaf, _ := w.AddClass("Leaf", []BaseDecl{{Class: left}})
	since := w.Generation()

	// Override m in Left: (Left, m) and (Leaf, m) are stale; Right and
	// all n entries survive.
	if err := w.AddMember(left, method("m")); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(coneOf(t, w, since, "m")), fmt.Sprint([]int{int(left), int(leaf)}); got != want {
		t.Errorf("cone for m = %s, want %s (Right is %d)", got, want, right)
	}
	if got := coneOf(t, w, since, "n"); got != nil {
		t.Errorf("cone for n = %v, want none", got)
	}
	// And the freeze answers the override.
	g, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if r := core.New(g).LookupByName("Leaf", "m"); r.Kind() != core.RedKind || r.Def().L != left {
		t.Errorf("lookup(Leaf, m) after override = %+v", r)
	}
}

func TestWorkspaceValidation(t *testing.T) {
	w := New()
	if _, err := w.AddClass("", nil); err == nil {
		t.Error("empty name should fail")
	}
	a, _ := w.AddClass("A", nil)
	if _, err := w.AddClass("A", nil); err == nil {
		t.Error("duplicate class should fail")
	}
	if _, err := w.AddClass("B", []BaseDecl{{Class: 99}}); err == nil {
		t.Error("unknown base should fail")
	}
	if _, err := w.AddClass("B", []BaseDecl{{Class: a}, {Class: a}}); err == nil {
		t.Error("repeated base should fail")
	}
	if err := w.AddMember(chg.ClassID(50), method("m")); err == nil {
		t.Error("invalid class in AddMember should fail")
	}
	if err := w.AddMember(a, chg.Member{}); err == nil {
		t.Error("empty member name should fail")
	}
	w.AddMember(a, method("m"))
	if err := w.AddMember(a, method("m")); err == nil {
		t.Error("duplicate member should fail")
	}
	if err := w.RemoveMember(a, "nope"); err == nil {
		t.Error("unknown member name should fail")
	}
	b, _ := w.AddClass("B", nil)
	if err := w.RemoveMember(b, "m"); err == nil {
		t.Error("removing undeclared member should fail")
	}
	if id, ok := w.ID("A"); !ok || id != a {
		t.Error("ID lookup wrong")
	}
}

// Incremental advantage: after one member edit in a deep hierarchy,
// only the touched cone is stale.
func TestRecomputationIsProportionalToCone(t *testing.T) {
	w := New()
	prev, _ := w.AddClass("C0", nil)
	w.AddMember(prev, method("m"))
	var all []chg.ClassID
	all = append(all, prev)
	for i := 1; i < 60; i++ {
		cur, _ := w.AddClass(fmt.Sprintf("C%d", i), []BaseDecl{{Class: prev}})
		all = append(all, cur)
		prev = cur
	}
	since := w.Generation()
	// Override near the leaf: only the 5 entries C55..C59 are stale.
	if err := w.AddMember(all[55], method("m")); err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, c := range all[55:] {
		want = append(want, int(c))
	}
	if got := coneOf(t, w, since, "m"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cone = %v, want %v (C55..C59)", got, want)
	}
}
