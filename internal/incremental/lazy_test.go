package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
)

// buildScripted applies a deterministic class/member edit script to a
// fresh workspace: the same seed reproduces the same workspace under
// any LazyConeLimit, which is what the lazy-vs-eager differentials
// rely on.
func buildScripted(seed int64, classes, edits int) (*Workspace, []chg.ClassID) {
	rng := rand.New(rand.NewSource(seed))
	w := New()
	var ids []chg.ClassID
	for i := 0; i < classes; i++ {
		var bases []BaseDecl
		if len(ids) > 0 {
			n := rng.Intn(min(3, len(ids)) + 1)
			perm := rng.Perm(len(ids))
			for j := 0; j < n; j++ {
				bases = append(bases, BaseDecl{Class: ids[perm[j]], Virtual: rng.Float64() < 0.3})
			}
		}
		id, err := w.AddClass(fmt.Sprintf("C%d", i), bases)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	names := []string{"m0", "m1", "m2", "m3"}
	for i := 0; i < edits; i++ {
		c := ids[rng.Intn(len(ids))]
		name := names[rng.Intn(len(names))]
		if w.DeclaresName(c, name) {
			_ = w.RemoveMember(c, name)
		} else {
			_ = w.AddMember(c, chg.Member{Name: name, Kind: chg.Method})
		}
	}
	return w, ids
}

// A workspace past LazyConeLimit (BFS cones, no dense sets) must agree
// with the dense-set workspace on every observable: descendant sets
// and the member cones handed to the engine.
func TestLazyConesMatchEager(t *testing.T) {
	defer func(old int) { LazyConeLimit = old }(LazyConeLimit)

	for _, seed := range []int64{11, 12, 13} {
		LazyConeLimit = 1 << 14
		eager, eids := buildScripted(seed, 50, 120)
		LazyConeLimit = 8
		lazy, lids := buildScripted(seed, 50, 120)

		if eager.LazyCones() {
			t.Fatal("eager workspace unexpectedly lazy")
		}
		if !lazy.LazyCones() {
			t.Fatal("lazy workspace never crossed the limit")
		}
		if lazy.desc != nil || lazy.anc != nil {
			t.Fatal("lazy workspace still holds dense sets")
		}
		if len(eids) != len(lids) {
			t.Fatalf("seed %d: class counts differ", seed)
		}
		for _, c := range eids {
			ed := eager.Descendants(c).Elems()
			ld := lazy.Descendants(c).Elems()
			if fmt.Sprint(ed) != fmt.Sprint(ld) {
				t.Fatalf("seed %d: Descendants(%d): eager %v vs lazy %v", seed, c, ed, ld)
			}
		}
		// Every member edit of the script lies in the window since 0.
		ec, ok1 := eager.InvalidationConeSince(0)
		lc, ok2 := lazy.InvalidationConeSince(0)
		if !ok1 || !ok2 || len(ec) != len(lc) {
			t.Fatalf("seed %d: cones %v/%v, counts %d vs %d", seed, ok1, ok2, len(ec), len(lc))
		}
		for i := range ec {
			if ec[i].Member != lc[i].Member || fmt.Sprint(ec[i].Classes.Elems()) != fmt.Sprint(lc[i].Classes.Elems()) {
				t.Fatalf("seed %d: cone %d: eager %d%v vs lazy %d%v", seed, i,
					ec[i].Member, ec[i].Classes.Elems(), lc[i].Member, lc[i].Classes.Elems())
			}
		}
	}
}

// The batched InvalidationConeSince (one UnionInto / multi-source BFS
// per member) must produce identical cones in both modes, including
// for windows where one member is edited many times.
func TestInvalidationConeSinceLazyMatchesEager(t *testing.T) {
	defer func(old int) { LazyConeLimit = old }(LazyConeLimit)

	build := func() (*Workspace, []chg.ClassID) {
		return buildScripted(77, 40, 0)
	}
	LazyConeLimit = 1 << 14
	eager, ids := build()
	LazyConeLimit = 8
	lazy, _ := build()
	if !lazy.LazyCones() {
		t.Fatal("lazy workspace never crossed the limit")
	}

	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	since := eager.Generation()
	if since != lazy.Generation() {
		t.Fatal("generations diverged before the window")
	}
	for i := 0; i < 60; i++ {
		c := ids[rng.Intn(len(ids))]
		name := names[rng.Intn(len(names))]
		for _, w := range []*Workspace{eager, lazy} {
			if w.DeclaresName(c, name) {
				if err := w.RemoveMember(c, name); err != nil {
					t.Fatal(err)
				}
			} else if err := w.AddMember(c, chg.Member{Name: name, Kind: chg.Method}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ec, ok1 := eager.InvalidationConeSince(since)
	lc, ok2 := lazy.InvalidationConeSince(since)
	if !ok1 || !ok2 {
		t.Fatalf("cone windows unanswerable: %v %v", ok1, ok2)
	}
	if len(ec) != len(lc) {
		t.Fatalf("cone counts differ: %d vs %d", len(ec), len(lc))
	}
	for i := range ec {
		if ec[i].Member != lc[i].Member {
			t.Fatalf("cone %d member %d vs %d", i, ec[i].Member, lc[i].Member)
		}
		if fmt.Sprint(ec[i].Classes.Elems()) != fmt.Sprint(lc[i].Classes.Elems()) {
			t.Fatalf("cone for member %d: eager %v vs lazy %v",
				ec[i].Member, ec[i].Classes.Elems(), lc[i].Classes.Elems())
		}
	}
}
