package incremental_test

// The workspace answers no lookups itself; these edit scripts drive it
// the way every client does — bound to an engine, each edit published
// by a warm-carry Sync — and pin what the served snapshots answer
// against a cold analyzer over the same freeze.

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
)

func method(name string) chg.Member { return chg.Member{Name: name, Kind: chg.Method} }

func bind(t *testing.T, w *incremental.Workspace) *engine.WorkspaceBinding {
	t.Helper()
	b, _, err := engine.New().BindWorkspace("ws", w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sync(t *testing.T, b *engine.WorkspaceBinding) *engine.Snapshot {
	t.Helper()
	snap, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkAgainstBatch syncs and compares every (class, member) lookup the
// published snapshot serves with core.New over the same freeze.
func checkAgainstBatch(t *testing.T, b *engine.WorkspaceBinding, label string) {
	t.Helper()
	snap := sync(t, b)
	g := snap.Graph()
	a := core.New(g)
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			class, name := g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m))
			got := snap.LookupByName(class, name)
			want := a.Lookup(chg.ClassID(c), chg.MemberID(m))
			if !got.Equal(want) {
				t.Fatalf("%s: (%s, %s): served %s vs batch %s", label, class, name, got.Format(g), want.Format(g))
			}
		}
	}
}

// Build Figure 2 incrementally, then edit it into Figure-1-like
// ambiguity and back.
func TestEditScriptFigure2(t *testing.T) {
	w := incremental.New()
	a, err := w.AddClass("A", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddMember(a, method("m")); err != nil {
		t.Fatal(err)
	}
	bb, _ := w.AddClass("B", []incremental.BaseDecl{{Class: a}})
	c, _ := w.AddClass("C", []incremental.BaseDecl{{Class: bb, Virtual: true}})
	d, _ := w.AddClass("D", []incremental.BaseDecl{{Class: bb, Virtual: true}})
	if err := w.AddMember(d, method("m")); err != nil {
		t.Fatal(err)
	}
	w.AddClass("E", []incremental.BaseDecl{{Class: c}, {Class: d}})
	b := bind(t, w)

	lookupE := func() core.Result { return sync(t, b).LookupByName("E", "m") }
	if r := lookupE(); r.Kind() != core.RedKind || r.Def().L != d {
		t.Fatalf("lookup(E, m) = %+v, want D::m", r)
	}
	checkAgainstBatch(t, b, "after build")

	// Remove D::m: now A::m is the only definition → resolves to A.
	if err := w.RemoveMember(d, "m"); err != nil {
		t.Fatal(err)
	}
	if r := lookupE(); r.Kind() != core.RedKind || r.Def().L != a {
		t.Fatalf("after removal: %+v, want A::m", r)
	}
	checkAgainstBatch(t, b, "after removal")

	// Add C::m too: C::m dominates A::m via the shared virtual B, so
	// the lookup resolves to C.
	if err := w.AddMember(c, method("m")); err != nil {
		t.Fatal(err)
	}
	if r := lookupE(); r.Kind() != core.RedKind || r.Def().L != c {
		t.Fatalf("after adding C::m: %+v, want C::m", r)
	}
	// Re-add D::m: now C::m vs D::m is a real ambiguity.
	if err := w.AddMember(d, method("m")); err != nil {
		t.Fatal(err)
	}
	if r := lookupE(); r.Kind() != core.BlueKind {
		t.Fatalf("after re-adding D::m: %+v, want ambiguous", r)
	}
	checkAgainstBatch(t, b, "final")
}

// Randomized edit scripts: every edit is published by a warm carry
// from a partly warmed predecessor, and the served answers agree with
// the batch algorithm on the freeze.
func TestRandomEditScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	memberPool := []string{"m0", "m1", "m2"}
	for script := 0; script < 15; script++ {
		w := incremental.New()
		root, _ := w.AddClass(fmt.Sprintf("K%d_root", script), nil)
		ids := []chg.ClassID{root}
		b := bind(t, w)
		for step := 0; step < 25; step++ {
			switch {
			case rng.Float64() < 0.4:
				var bases []incremental.BaseDecl
				n := rng.Intn(min(3, len(ids)) + 1)
				perm := rng.Perm(len(ids))
				for i := 0; i < n; i++ {
					bases = append(bases, incremental.BaseDecl{
						Class:   ids[perm[i]],
						Virtual: rng.Float64() < 0.4,
					})
				}
				id, err := w.AddClass(fmt.Sprintf("K%d_%d", script, step), bases)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case rng.Float64() < 0.7:
				c := ids[rng.Intn(len(ids))]
				// AddMember may fail on duplicates; ignore those.
				_ = w.AddMember(c, method(memberPool[rng.Intn(len(memberPool))]))
			default:
				c := ids[rng.Intn(len(ids))]
				_ = w.RemoveMember(c, memberPool[rng.Intn(len(memberPool))])
			}
			// Random interleaved queries warm cells for the next carry.
			snap := sync(t, b)
			g := snap.Graph()
			for q := 0; q < 3; q++ {
				snap.LookupByName(g.Name(ids[rng.Intn(len(ids))]), memberPool[rng.Intn(len(memberPool))])
			}
		}
		checkAgainstBatch(t, b, fmt.Sprintf("script %d", script))
	}
}

// virtualFan builds roots R0..R{n-1} and a Leaf deriving virtually from
// all of them: toggling one member across the roots makes the leaf's
// lookup a fresh blue set (a distinct pool payload) on almost every
// edit.
func virtualFan(t *testing.T, n int) (*incremental.Workspace, []chg.ClassID) {
	t.Helper()
	w := incremental.New()
	var rs []chg.ClassID
	var decls []incremental.BaseDecl
	for i := 0; i < n; i++ {
		r, err := w.AddClass(fmt.Sprintf("R%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
		decls = append(decls, incremental.BaseDecl{Class: r, Virtual: true})
	}
	if _, err := w.AddClass("Leaf", decls); err != nil {
		t.Fatal(err)
	}
	return w, rs
}

// toggle flips root i's declaration of m.
func toggle(t *testing.T, w *incremental.Workspace, r chg.ClassID) {
	t.Helper()
	var err error
	if w.DeclaresName(r, "m") {
		err = w.RemoveMember(r, "m")
	} else {
		err = w.AddMember(r, method("m"))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// A 10k-edit session with heavy payload churn must keep the served
// pool bounded: invalidated blue sets become garbage, and the carried
// republish chains to a fresh pool before the garbage outgrows the
// live set. Without compaction the pool would grow with the number of
// distinct blue sets ever produced (thousands here).
func TestPoolBoundedAcrossLongEditSession(t *testing.T) {
	w, rs := virtualFan(t, 16)
	b := bind(t, w)
	rng := rand.New(rand.NewSource(7))
	compactions, dropped := 0, 0
	var snap *engine.Snapshot
	for edit := 0; edit < 10000; edit++ {
		toggle(t, w, rs[rng.Intn(len(rs))])
		snap = sync(t, b)
		snap.LookupByName("Leaf", "m") // produce (and cache) a blue/red payload
		if st := snap.Carry(); st.PoolCompacted {
			compactions++
			dropped += st.PoolGarbage
		}
	}
	size := snap.Pool().Len()
	if compactions == 0 {
		t.Fatalf("no pool compaction happened in 10k edits (pool size %d)", size)
	}
	if total := size + dropped; total < 1000 {
		t.Fatalf("session generated only %d distinct payloads; churn too low to test boundedness", total)
	}
	if size > 1000 {
		t.Errorf("pool retained %d payloads after 10k edits (dropped %d, compactions %d); not bounded",
			size, dropped, compactions)
	}
	checkAgainstBatch(t, b, "after 10k-edit session")
}

// Compacting the pool on a carried republish must not change any
// answer: a blue payload that stays live across the compacting sync is
// migrated into the fresh pool, not lost.
func TestPoolCompactionPreservesResults(t *testing.T) {
	w, rs := virtualFan(t, 16)
	for _, r := range rs[:2] {
		if err := w.AddMember(r, method("k")); err != nil {
			t.Fatal(err)
		}
	}
	b := bind(t, w)
	rng := rand.New(rand.NewSource(3))
	before := sync(t, b).LookupByName("Leaf", "k")
	if before.Kind() != core.BlueKind {
		t.Fatalf("lookup(Leaf, k) = %v, want blue", before)
	}
	for edit := 0; edit < 10000; edit++ {
		toggle(t, w, rs[rng.Intn(len(rs))])
		snap := sync(t, b)
		snap.LookupByName("Leaf", "m")
		after := snap.LookupByName("Leaf", "k")
		if !after.Equal(before) {
			t.Fatalf("edit %d changed an unedited answer: %v vs %v", edit, after, before)
		}
		if snap.Carry().PoolCompacted {
			checkAgainstBatch(t, b, "after compaction")
			return
		}
	}
	t.Fatal("no carried republish compacted the pool in 10k edits")
}
