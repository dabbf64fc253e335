package incremental

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// checkConesMatchFrozen pins InvalidationConeSince(since) against the
// workspace's current freeze: for each member edited in the window,
// the cone must be the union of {c} ∪ Descendants(c) over the edited
// classes c, as a set over NumClasses, with cones in member order.
func checkConesMatchFrozen(t *testing.T, w *Workspace, since uint64) {
	t.Helper()
	g, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	edits, ok1 := w.EditsSince(since)
	cones, ok2 := w.InvalidationConeSince(since)
	if !ok1 || !ok2 {
		t.Fatalf("window since %d unanswerable: %v %v", since, ok1, ok2)
	}
	want := map[chg.MemberID]*bitset.Set{}
	for _, e := range edits {
		if e.Kind == EditAddClass {
			continue
		}
		s := want[e.Member]
		if s == nil {
			s = bitset.New(g.NumClasses())
			want[e.Member] = s
		}
		s.Add(int(e.Class))
		s.UnionWith(g.Descendants(e.Class))
	}
	if len(cones) != len(want) {
		t.Fatalf("window since %d: %d member cones, want %d", since, len(cones), len(want))
	}
	for i, mc := range cones {
		if i > 0 && cones[i-1].Member >= mc.Member {
			t.Fatalf("window since %d: cones out of member order", since)
		}
		if s := want[mc.Member]; s == nil || !mc.Classes.Equal(s) {
			t.Fatalf("window since %d: cone for %s = %v, want %v", since, g.MemberName(mc.Member), mc.Classes, s)
		}
	}
}

// scriptStep applies one random edit: a new class with up to three
// random direct bases, or a toggle of one of names in a random class
// (always a new class when names is empty).
func scriptStep(t *testing.T, rng *rand.Rand, w *Workspace, names []string) {
	t.Helper()
	n := w.NumClasses()
	if n == 0 || len(names) == 0 || rng.Intn(3) == 0 {
		var bases []BaseDecl
		if n > 0 {
			perm := rng.Perm(n)
			for i := rng.Intn(min(3, n) + 1); i > 0; i-- {
				bases = append(bases, BaseDecl{Class: chg.ClassID(perm[i-1]), Virtual: rng.Float64() < 0.3})
			}
		}
		if _, err := w.AddClass(fmt.Sprintf("K%d", n), bases); err != nil {
			t.Fatal(err)
		}
		return
	}
	c := chg.ClassID(rng.Intn(n))
	name := names[rng.Intn(len(names))]
	if w.DeclaresName(c, name) {
		if err := w.RemoveMember(c, name); err != nil {
			t.Fatal(err)
		}
	} else if err := w.AddMember(c, method(name)); err != nil {
		t.Fatal(err)
	}
}

// The cone of every single edit must equal the closure the frozen
// graph computes from scratch, at every step of a random edit script.
func TestDescendantSetsMatchFrozenClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"m0", "m1", "m2", "m3"}
	for script := 0; script < 10; script++ {
		w := New()
		for step := 0; step < 80; step++ {
			since := w.Generation()
			scriptStep(t, rng, w, names)
			checkConesMatchFrozen(t, w, since)
		}
		checkConesMatchFrozen(t, w, 0)
	}
}

// The workspace's cones, walked lazily down its derived lists, must
// match the frozen graph's eagerly built Descendants closure: after a
// seeded script of 50 classes and 120 edits, every class's single-seed
// cone equals {c} ∪ Descendants(c), and the whole script's member
// cones equal the closure unions.
func TestLazyConesMatchEager(t *testing.T) {
	names := []string{"m0", "m1", "m2", "m3"}
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		w := New()
		for w.NumClasses() < 50 {
			scriptStep(t, rng, w, nil)
		}
		for i := 0; i < 120; i++ {
			scriptStep(t, rng, w, names)
		}
		g, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
			lazy := bitset.New(w.NumClasses())
			w.coneFrom(lazy, c)
			eager := g.Descendants(c).Clone()
			eager.Add(int(c))
			if !lazy.Equal(eager) {
				t.Fatalf("seed %d: cone of %s: lazy %v vs eager %v", seed, g.Name(c), lazy, eager)
			}
		}
		checkConesMatchFrozen(t, w, 0)
	}
}

// One window that edits the same few members many times, with classes
// added between the edits: each member's cone is one multi-source walk
// over all its edited classes, read at call time, so it covers classes
// defined after the edit too.
func TestInvalidationConeSinceRepeatedMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	w := New()
	for w.NumClasses() < 40 {
		scriptStep(t, rng, w, nil)
	}
	since := w.Generation()
	for i := 0; i < 90; i++ {
		scriptStep(t, rng, w, names)
	}
	checkConesMatchFrozen(t, w, since)
}

// TestFromGraphAllocationBounded gates the workspace's footprint,
// counted by the runtime rather than timed: lifting a 16,000-class
// Giant hierarchy keeps lists and maps linear in its size, where
// per-class ancestor and descendant bitsets alone would be 64 MB.
func TestFromGraphAllocationBounded(t *testing.T) {
	g := hiergen.Giant(hiergen.GiantDefaults(16000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := FromGraph(g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("FromGraph of %d classes allocated %d bytes, want under %d", w.NumClasses(), got, limit)
	}
}

func TestInvalidationConeSince(t *testing.T) {
	w := New()
	root, _ := w.AddClass("Root", nil)
	left, _ := w.AddClass("Left", []BaseDecl{{Class: root}})
	right, _ := w.AddClass("Right", []BaseDecl{{Class: root}})
	leaf, _ := w.AddClass("Leaf", []BaseDecl{{Class: left}})

	since := w.Generation()

	// A window with no edits: empty cone, ok.
	cones, ok := w.InvalidationConeSince(since)
	if !ok || len(cones) != 0 {
		t.Fatalf("empty window: got %v, %v", cones, ok)
	}
	// A future generation is unanswerable.
	if _, ok := w.InvalidationConeSince(since + 1); ok {
		t.Fatal("future generation should not be answerable")
	}

	// Class-only edits invalidate nothing.
	iso, _ := w.AddClass("Iso", nil)
	if cones, ok = w.InvalidationConeSince(since); !ok || len(cones) != 0 {
		t.Fatalf("class-only window: got %v, %v", cones, ok)
	}

	// Member edits produce per-member cones: edited class ∪ descendants.
	if err := w.AddMember(left, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddMember(right, chg.Member{Name: "n", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveMember(left, "m"); err != nil {
		t.Fatal(err)
	}
	cones, ok = w.InvalidationConeSince(since)
	if !ok || len(cones) != 2 {
		t.Fatalf("cones = %v, ok = %v; want 2 member cones", cones, ok)
	}
	mid, nid := w.memberIDs["m"], w.memberIDs["n"]
	byMember := map[chg.MemberID][]int{}
	for _, c := range cones {
		byMember[c.Member] = c.Classes.Elems()
	}
	wantM := []int{int(left), int(leaf)}
	wantN := []int{int(right)}
	if got := byMember[mid]; fmt.Sprint(got) != fmt.Sprint(wantM) {
		t.Errorf("cone for m = %v, want %v", got, wantM)
	}
	if got := byMember[nid]; fmt.Sprint(got) != fmt.Sprint(wantN) {
		t.Errorf("cone for n = %v, want %v", got, wantN)
	}
	_ = iso

	// Once the edit log is trimmed past the window, the cone is
	// unanswerable and callers must fall back to full invalidation.
	for i := 0; i <= maxEditLog; i++ {
		if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
		if err := w.RemoveMember(root, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := w.InvalidationConeSince(since); ok {
		t.Error("trimmed log should refuse the old window")
	}
	// A recent window still works.
	recent := w.Generation()
	if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if cones, ok = w.InvalidationConeSince(recent); !ok || len(cones) != 1 {
		t.Errorf("recent window after trim: got %v, %v", cones, ok)
	}
}

func TestEditsSinceAndDeclaresName(t *testing.T) {
	w := New()
	root, _ := w.AddClass("Root", nil)
	left, _ := w.AddClass("Left", []BaseDecl{{Class: root}})

	since := w.Generation()
	if edits, ok := w.EditsSince(since); !ok || len(edits) != 0 {
		t.Fatalf("empty window: got %v, %v", edits, ok)
	}
	if _, ok := w.EditsSince(since + 1); ok {
		t.Fatal("future generation should not be answerable")
	}

	iso, _ := w.AddClass("Iso", nil)
	if err := w.AddMember(left, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveMember(left, "m"); err != nil {
		t.Fatal(err)
	}
	edits, ok := w.EditsSince(since)
	if !ok || len(edits) != 3 {
		t.Fatalf("edits = %v, ok = %v; want 3 typed edits", edits, ok)
	}
	mid := w.memberIDs["m"]
	want := []Edit{
		{Kind: EditAddClass, Class: iso},
		{Kind: EditAddMember, Class: left, Member: mid},
		{Kind: EditRemoveMember, Class: left, Member: mid},
	}
	for i, e := range edits {
		if e.Kind != want[i].Kind || e.Class != want[i].Class || e.Member != want[i].Member {
			t.Errorf("edit %d = {%v %d %d}, want {%v %d %d}",
				i, e.Kind, e.Class, e.Member, want[i].Kind, want[i].Class, want[i].Member)
		}
	}
	// Later edits fall outside an advanced window.
	mid2 := w.Generation()
	if err := w.AddMember(root, chg.Member{Name: "n", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if edits, ok = w.EditsSince(mid2); !ok || len(edits) != 1 || edits[0].Kind != EditAddMember {
		t.Fatalf("recent window: got %v, %v", edits, ok)
	}

	// DeclaresName tracks direct declarations only.
	if !w.DeclaresName(root, "n") {
		t.Error("Root should declare n")
	}
	if w.DeclaresName(left, "n") {
		t.Error("Left inherits n but does not declare it")
	}
	if w.DeclaresName(left, "m") {
		t.Error("m was removed from Left")
	}
	if w.DeclaresName(chg.ClassID(99), "n") {
		t.Error("invalid class should not declare anything")
	}
	if w.DeclaresName(root, "never-interned") {
		t.Error("unknown member name should not be declared")
	}

	// Trimming past the window makes EditsSince unanswerable too.
	for i := 0; i <= maxEditLog; i++ {
		if err := w.AddMember(root, chg.Member{Name: "t", Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
		if err := w.RemoveMember(root, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := w.EditsSince(since); ok {
		t.Error("trimmed log should refuse the old window")
	}
}
