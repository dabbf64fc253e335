package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/gxx"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
	"cpplookup/internal/mro"
)

// allSems is the backend set the multi-semantics tests serve.
var allSems = []core.SemanticsID{core.SemDominance, core.SemC3, core.SemGxx}

func multiSnapshot(t *testing.T, g *chg.Graph) *Snapshot {
	t.Helper()
	return NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
}

// TestSemanticsColumnsServeAllBackends pins the basic column
// contract: a snapshot built WithSemantics answers every backend,
// lazily and tabulated, each agreeing with the backend run directly,
// and refuses ids it was not built for.
func TestSemanticsColumnsServeAllBackends(t *testing.T) {
	g := hiergen.Figure9()
	snap := multiSnapshot(t, g)

	if got := snap.Semantics(); len(got) != 3 ||
		got[0] != core.SemDominance || got[1] != core.SemC3 || got[2] != core.SemGxx {
		t.Fatalf("Semantics() = %v", got)
	}
	if _, ok := snap.LookupSem("no-such-backend", 0, 0); ok {
		t.Fatal("unknown backend accepted")
	}
	if _, ok := snap.TableSem("no-such-backend"); ok {
		t.Fatal("unknown backend table accepted")
	}

	direct := map[core.SemanticsID]*core.Analyzer{
		core.SemDominance: core.New(g),
		core.SemC3:        core.NewFor(mro.New(g, nil)),
		core.SemGxx:       core.NewFor(gxx.NewBackend(g, nil, 0)),
	}
	for _, id := range allSems {
		tab, ok := snap.TableSem(id)
		if !ok {
			t.Fatalf("TableSem(%s) not served", id)
		}
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				want := direct[id].Lookup(cid, mid)
				lazy, ok := snap.LookupSem(id, cid, mid)
				if !ok {
					t.Fatalf("LookupSem(%s) not served", id)
				}
				if !lazy.Equal(want) {
					t.Errorf("%s %s::%s lazy = %s, direct = %s",
						id, g.Name(cid), g.MemberName(mid), lazy.Format(g), want.Format(g))
				}
				if tr := tab.Lookup(cid, mid); !tr.Equal(want) {
					t.Errorf("%s %s::%s table = %s, direct = %s",
						id, g.Name(cid), g.MemberName(mid), tr.Format(g), want.Format(g))
				}
			}
		}
	}

	// The dominance column must be cell-for-cell the plain snapshot's:
	// WithSemantics adds columns, never perturbs the primary cache.
	plain := NewSnapshot(g)
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			cid, mid := chg.ClassID(c), chg.MemberID(m)
			a := snap.Lookup(cid, mid)
			b := plain.Lookup(cid, mid)
			if a.Cell() != b.Cell() && !a.Equal(b) {
				t.Errorf("dominance %s::%s differs with columns on: %s vs %s",
					g.Name(cid), g.MemberName(mid), a.Format(g), b.Format(g))
			}
		}
	}
}

// warmAll fills every (backend, class, member) cell of the snapshot.
func warmAll(snap *Snapshot) {
	g := snap.Graph()
	for _, id := range snap.Semantics() {
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				snap.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
			}
		}
	}
}

// TestSemanticsCarryConeInvalidation verifies PR5's warm carry per
// backend column: after an edit→republish, each column keeps exactly
// the cells outside the edit's cone (Carried == cached immediately
// after the republish, before any refill), the cone counts match the
// dominance column's (same cone under every semantics), and every
// post-carry answer equals a cold snapshot's.
func TestSemanticsCarryConeInvalidation(t *testing.T) {
	g := hiergen.SparseMembers(120, 300, 3, 7)
	w, err := incremental.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	b, snap, err := e.BindWorkspace("multi", w, core.WithSemantics(core.SemC3, core.SemGxx))
	if err != nil {
		t.Fatal(err)
	}
	warmAll(snap)

	// Toggle one member on a mid-hierarchy class so the cone is a
	// proper subset with a non-trivial descendant set.
	target := g.Roots()[0]
	name := g.MemberName(0)
	if err := w.AddMember(target, chg.Member{Name: name, Kind: chg.Method}); err != nil {
		// Already declared — remove instead.
		if err := w.RemoveMember(target, name); err != nil {
			t.Fatal(err)
		}
	}
	snap2, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	st := snap2.Carry()
	if len(st.Columns) != 2 {
		t.Fatalf("Carry().Columns = %v, want 2 columns", st.Columns)
	}
	if st.Invalidated == 0 || st.Carried == 0 {
		t.Fatalf("primary carry degenerate: %+v", st)
	}
	for i, cs := range st.Columns {
		if cs.ID != snap2.Semantics()[i+1] {
			t.Errorf("column %d id = %s", i, cs.ID)
		}
		// Same cone under every backend: each warm column loses the
		// same number of cells as the dominance cache.
		if cs.Invalidated != st.Invalidated {
			t.Errorf("column %s invalidated %d, dominance %d — cones differ",
				cs.ID, cs.Invalidated, st.Invalidated)
		}
		if cs.Carried != snap2.SemCachedEntries(cs.ID) {
			t.Errorf("column %s carried %d but caches %d cells post-republish",
				cs.ID, cs.Carried, snap2.SemCachedEntries(cs.ID))
		}
	}
	if st.Carried != snap2.CachedEntries() {
		t.Errorf("primary carried %d but caches %d cells post-republish",
			st.Carried, snap2.CachedEntries())
	}

	// Differential: every backend's every answer equals a cold
	// snapshot over the same frozen graph.
	g2 := snap2.Graph()
	cold := NewSnapshot(g2, core.WithSemantics(core.SemC3, core.SemGxx))
	for _, id := range snap2.Semantics() {
		for c := 0; c < g2.NumClasses(); c++ {
			for m := 0; m < g2.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				warm, _ := snap2.LookupSem(id, cid, mid)
				want, _ := cold.LookupSem(id, cid, mid)
				if !warm.Equal(want) {
					t.Fatalf("%s %s::%s carried = %s, cold = %s",
						id, g2.Name(cid), g2.MemberName(mid), warm.Format(g2), want.Format(g2))
				}
			}
		}
	}
}

// TestSemanticsCarryPoolCompaction forces the pool-compaction carry
// path with all columns warm: migrated cells must keep their logical
// values under every backend (FailKind and Blue payloads included).
func TestSemanticsCarryPoolCompaction(t *testing.T) {
	oldMin := carryCompactMinGarbage
	oldShould := carryShouldCompact
	carryCompactMinGarbage = 0
	carryShouldCompact = func(live, garbage int) bool { return true }
	defer func() {
		carryCompactMinGarbage = oldMin
		carryShouldCompact = oldShould
	}()

	g := hiergen.Figure1()
	w, err := incremental.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	b, snap, err := e.BindWorkspace("compact", w, core.WithSemantics(core.SemC3, core.SemGxx))
	if err != nil {
		t.Fatal(err)
	}
	warmAll(snap)
	leaves := g.Leaves()
	if err := w.AddMember(leaves[0], chg.Member{Name: "compactprobe", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	snap2, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !snap2.Carry().PoolCompacted {
		t.Fatalf("compaction not taken: %+v", snap2.Carry())
	}
	g2 := snap2.Graph()
	cold := NewSnapshot(g2, core.WithSemantics(core.SemC3, core.SemGxx))
	for _, id := range snap2.Semantics() {
		for c := 0; c < g2.NumClasses(); c++ {
			for m := 0; m < g2.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				warm, _ := snap2.LookupSem(id, cid, mid)
				want, _ := cold.LookupSem(id, cid, mid)
				if !warm.Equal(want) {
					t.Fatalf("%s %s::%s migrated = %s, cold = %s",
						id, g2.Name(cid), g2.MemberName(mid), warm.Format(g2), want.Format(g2))
				}
			}
		}
	}
}

// TestMixedBackendReadersAcrossRepublish hammers one engine name with
// concurrent readers spread across all three backends while the
// writer toggles a member and republishes with warm carry — the
// mixed-backend serving scenario, meaningful under -race. Readers
// verify a stable invariant instead of exact values: on Figure 9's
// hierarchy every backend's answer for a fixed probe entry is one of
// the two states the toggle oscillates between.
func TestMixedBackendReadersAcrossRepublish(t *testing.T) {
	g := hiergen.Figure9()
	w, err := incremental.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	b, _, err := e.BindWorkspace("mixed", w, core.WithSemantics(core.SemC3, core.SemGxx))
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	const rounds = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		id := allSems[i%len(allSems)]
		wg.Add(1)
		go func(id core.SemanticsID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, ok := e.Snapshot("mixed")
				if !ok {
					errs <- fmt.Errorf("snapshot vanished")
					return
				}
				sg := snap.Graph()
				for c := 0; c < sg.NumClasses(); c++ {
					for m := 0; m < sg.NumMemberNames(); m++ {
						r, ok := snap.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
						if !ok {
							errs <- fmt.Errorf("%s not served", id)
							return
						}
						_ = r.Kind()
					}
				}
			}
		}(id)
	}

	target := g.Leaves()[0]
	present := false
	for i := 0; i < rounds; i++ {
		var err error
		if present {
			err = w.RemoveMember(target, "racetoggle")
		} else {
			err = w.AddMember(target, chg.Member{Name: "racetoggle", Kind: chg.Method})
		}
		if err != nil {
			t.Fatal(err)
		}
		present = !present
		if _, err := b.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final state answers match cold for every backend.
	snap, _ := e.Snapshot("mixed")
	g2 := snap.Graph()
	cold := NewSnapshot(g2, core.WithSemantics(core.SemC3, core.SemGxx))
	for _, id := range snap.Semantics() {
		for c := 0; c < g2.NumClasses(); c++ {
			for m := 0; m < g2.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				warm, _ := snap.LookupSem(id, cid, mid)
				want, _ := cold.LookupSem(id, cid, mid)
				if !warm.Equal(want) {
					t.Fatalf("%s %s::%s post-race = %s, cold = %s",
						id, g2.Name(cid), g2.MemberName(mid), warm.Format(g2), want.Format(g2))
				}
			}
		}
	}
}

// TestLookupSemConcurrentRepublish races readers on held snapshots
// against a writer republishing edits through a workspace binding with
// warm carry, so readers keep answering from versions that are no
// longer current while carried successors are staged. For each version
// it publishes, the writer builds that version's eager tables once;
// each reader checks every answer it reads from the version it holds,
// under all three backends, against them. Under -race this also
// proves reads of a held version never touch a successor's staging
// writes.
func TestLookupSemConcurrentRepublish(t *testing.T) {
	g0 := hiergen.SparseMembers(100, 200, 3, 5)
	ws, err := incremental.FromGraph(g0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	bind, snap0, err := eng.BindWorkspace("w", ws, core.WithSemantics(core.SemC3, core.SemGxx))
	if err != nil {
		t.Fatal(err)
	}
	target := g0.Leaves()[0]

	// version is one published snapshot and its tables, one per
	// allSems entry.
	type version struct {
		snap   *Snapshot
		tables []*core.Table
	}
	const readers = 6
	const rounds = 40
	versions := make(chan version, readers*rounds)
	var wg sync.WaitGroup
	errs := make(chan string, readers+1)

	wg.Add(1)
	go func() { // writer: keep republishing an oscillating edit
		defer wg.Done()
		defer close(versions)
		on := false
		for i := 0; i < rounds; i++ {
			var err error
			if on {
				err = ws.RemoveMember(target, "semtoggle")
			} else {
				err = ws.AddMember(target, chg.Member{Name: "semtoggle", Kind: chg.Method})
			}
			on = !on
			if err != nil {
				errs <- "edit: " + err.Error()
				return
			}
			s, err := bind.Sync()
			if err != nil {
				errs <- "sync: " + err.Error()
				return
			}
			v := version{snap: s}
			for _, id := range allSems {
				tab, ok := s.TableSem(id)
				if !ok {
					errs <- fmt.Sprintf("version %d does not serve %s", s.Version(), id)
					return
				}
				v.tables = append(v.tables, tab)
			}
			for r := 0; r < readers; r++ {
				versions <- v
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for v := range versions {
				g := v.snap.Graph()
				toggle, ok := g.MemberID("semtoggle")
				if !ok {
					errs <- fmt.Sprintf("version %d lost the toggled member name", v.snap.Version())
					return
				}
				for i, id := range allSems {
					for q := 0; q < 200; q++ {
						// The first probe is the toggled cell, whose
						// answer differs between consecutive versions.
						c, m := target, toggle
						if q > 0 {
							c, m = chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames()))
						}
						got, ok := v.snap.LookupSem(id, c, m)
						if !ok {
							errs <- fmt.Sprintf("version %d stopped serving %s", v.snap.Version(), id)
							return
						}
						if want := v.tables[i].Lookup(c, m); !got.Equal(want) {
							errs <- fmt.Sprintf("version %d %s %s::%s = %s, table %s", v.snap.Version(), id,
								g.Name(c), g.MemberName(m), got.Format(g), want.Format(g))
							return
						}
					}
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	final, ok := eng.Snapshot("w")
	if !ok || final.Version() <= snap0.Version() {
		t.Fatal("no republish happened")
	}
}
