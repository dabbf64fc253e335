package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
)

// The incrementally maintained descendant sets must agree with the
// closure the frozen graph computes from scratch, at every point of a
// random edit script.
func TestDescendantSetsMatchFrozenClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for script := 0; script < 10; script++ {
		w := New()
		var ids []chg.ClassID
		for step := 0; step < 40; step++ {
			var bases []BaseDecl
			if len(ids) > 0 {
				n := rng.Intn(min(3, len(ids)) + 1)
				perm := rng.Perm(len(ids))
				for i := 0; i < n; i++ {
					bases = append(bases, BaseDecl{Class: ids[perm[i]], Virtual: rng.Float64() < 0.3})
				}
			}
			id, err := w.AddClass(fmt.Sprintf("D%d_%d", script, step), bases)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		g, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ids {
			got := w.Descendants(c).Elems()
			want := g.Descendants(c).Elems()
			if len(got) != len(want) {
				t.Fatalf("script %d: Descendants(%s): incremental %v vs closure %v", script, g.Name(c), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("script %d: Descendants(%s): incremental %v vs closure %v", script, g.Name(c), got, want)
				}
			}
		}
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
