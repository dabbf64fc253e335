package image

import (
	"fmt"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
)

// TestCarryFromMappedImage is the warm-start story end to end: freeze
// a workspace to an image, map it in (as a restarted process would),
// adopt it into an engine, keep editing, and republish with carry-over.
// The successor must (a) actually carry cells from the mapped
// predecessor, (b) share — then copy-on-write-promote — the mapped
// payload pool, and (c) answer exactly like a cold snapshot of the
// edited hierarchy.
func TestCarryFromMappedImage(t *testing.T) {
	w := incremental.New()
	var ids []chg.ClassID
	for i := 0; i < 30; i++ {
		var bases []incremental.BaseDecl
		if i > 0 {
			bases = append(bases, incremental.BaseDecl{Class: ids[(i-1)/2], Virtual: i%3 == 0})
		}
		if i > 10 && ids[i-7] != ids[(i-1)/2] {
			bases = append(bases, incremental.BaseDecl{Class: ids[i-7], Virtual: i%4 == 0})
		}
		id, err := w.AddClass(fmt.Sprintf("C%d", i), bases)
		if err != nil {
			t.Fatalf("AddClass: %v", err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%2 == 0 {
			if err := w.AddMember(id, chg.Member{Name: "f", Kind: chg.Method}); err != nil {
				t.Fatalf("AddMember: %v", err)
			}
		}
		if i%5 == 0 {
			if err := w.AddMember(id, chg.Member{Name: "g", Kind: chg.Field, Static: true}); err != nil {
				t.Fatalf("AddMember: %v", err)
			}
		}
	}

	dir := t.TempDir()
	path := dir + "/ws.img"
	opts := []core.Option{core.WithSemantics(allBackends...), core.WithStaticRule()}
	frozen, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Workspace.Snapshot: %v", err)
	}
	warm := engine.NewSnapshot(frozen, opts...)
	warm.WarmAll()
	if err := WriteFile(path, warm); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	genAtFreeze := w.Generation()

	im, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer im.Close()

	assertCachedEntries(t, "after the load", im.Snapshot())

	e := engine.New()
	if err := e.Adopt("ws", im.Snapshot()); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if err := e.Adopt("ws", im.Snapshot()); err == nil {
		t.Fatal("double Adopt of the same name succeeded")
	}

	// The day's edits: a member added mid-hierarchy (invalidates its
	// cone) and one removed near a leaf.
	if err := w.AddMember(ids[4], chg.Member{Name: "f", Kind: chg.Method}); err != nil && !w.DeclaresName(ids[4], "f") {
		t.Fatalf("AddMember edit: %v", err)
	}
	if err := w.AddMember(ids[3], chg.Member{Name: "h", Kind: chg.Method}); err != nil {
		t.Fatalf("AddMember edit: %v", err)
	}
	if err := w.RemoveMember(ids[20], "f"); err != nil && w.DeclaresName(ids[20], "f") {
		t.Fatalf("RemoveMember edit: %v", err)
	}

	g2, err := w.Snapshot()
	if err != nil {
		t.Fatalf("workspace snapshot: %v", err)
	}
	cone, ok := w.InvalidationConeSince(genAtFreeze)
	if !ok {
		t.Fatal("edit log did not cover the window")
	}
	succ, err := e.UpdateCarried("ws", g2, cone)
	if err != nil {
		t.Fatalf("UpdateCarried: %v", err)
	}
	st := succ.Carry()
	if st.Carried == 0 {
		t.Fatalf("republish from the mapped predecessor carried nothing: %+v", st)
	}
	if !st.PoolShared && !st.PoolCompacted {
		t.Fatalf("successor neither shared nor compacted the mapped pool: %+v", st)
	}
	if words := len(warm.Semantics()) * frozen.NumMemberNames() * frozen.NumClasses(); st.Copied != words && !st.PoolCompacted {
		t.Fatalf("successor copied %d words, want every mapped run's %d", st.Copied, words)
	}
	assertCachedEntries(t, "on the carried successor", succ)

	// New fills on the successor intern into the (possibly still
	// mapped) pool — copy-on-write promotion must make that safe, and
	// every answer must match a cold oracle.
	oracle := engine.NewSnapshot(g2, opts...)
	for _, id := range oracle.Semantics() {
		for c := 0; c < g2.NumClasses(); c++ {
			for m := 0; m < g2.NumMemberNames(); m++ {
				want, _ := oracle.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				got, okk := succ.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				if !okk || !want.Equal(got) {
					t.Fatalf("%s: carried lookup[%d,%d] = %v, want %v", id, c, m, got, want)
				}
			}
		}
	}

	assertCachedEntries(t, "after lazy fills into the carried successor", succ)

	// The mapped predecessor must still answer its own hierarchy
	// untouched (immutability across republish).
	imGraph := im.Snapshot().Graph()
	coldOld := engine.NewSnapshot(imGraph, opts...)
	for c := 0; c < imGraph.NumClasses(); c++ {
		for m := 0; m < imGraph.NumMemberNames(); m++ {
			want := coldOld.Lookup(chg.ClassID(c), chg.MemberID(m))
			if got := im.Snapshot().Lookup(chg.ClassID(c), chg.MemberID(m)); !want.Equal(got) {
				t.Fatalf("predecessor drifted after carry: [%d,%d] = %v, want %v", c, m, got, want)
			}
		}
	}
}

// assertCachedEntries checks CachedEntries and SemCachedEntries of s
// against a direct count of the nonzero words of its cell plane.
func assertCachedEntries(t *testing.T, label string, s *engine.Snapshot) {
	t.Helper()
	ids := s.Semantics()
	size := s.Graph().NumClasses() * s.Graph().NumMemberNames()
	plane := make([]uint64, len(ids)*size)
	s.CopyCells(plane, s.Pool().Image())
	for i, id := range ids {
		want := 0
		for _, w := range plane[i*size : (i+1)*size] {
			if w != 0 {
				want++
			}
		}
		if got := s.SemCachedEntries(id); got != want {
			t.Fatalf("%s: SemCachedEntries(%s) = %d, holds %d words", label, id, got, want)
		}
		if i == 0 && s.CachedEntries() != want {
			t.Fatalf("%s: CachedEntries = %d, holds %d words", label, s.CachedEntries(), want)
		}
	}
}
