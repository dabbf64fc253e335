package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/incremental"
)

// carryOptSets is the option matrix the carry-over differential tests
// sweep: every combination of the payload-bearing extensions, so
// carried cells cover inline reds, blue sets, static coverage, and
// tracked paths.
func carryOptSets() map[string][]core.Option {
	return map[string][]core.Option{
		"plain":        nil,
		"static":       {core.WithStaticRule()},
		"paths":        {core.WithTrackPaths()},
		"static+paths": {core.WithStaticRule(), core.WithTrackPaths()},
	}
}

// randomEditableWorkspace builds a workspace with virtual diamonds and
// static members so lookups produce the full payload variety.
func randomEditableWorkspace(rng *rand.Rand, classes int) (*incremental.Workspace, []chg.ClassID) {
	w := incremental.New()
	var ids []chg.ClassID
	for i := 0; i < classes; i++ {
		var bases []incremental.BaseDecl
		if len(ids) > 0 {
			n := rng.Intn(min(3, len(ids)) + 1)
			perm := rng.Perm(len(ids))
			for j := 0; j < n; j++ {
				bases = append(bases, incremental.BaseDecl{
					Class:   ids[perm[j]],
					Virtual: rng.Float64() < 0.4,
				})
			}
		}
		id, err := w.AddClass(fmt.Sprintf("C%d", i), bases)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	return w, ids
}

// randomMemberEdit applies one add/remove of a member declaration,
// ignoring duplicate/missing errors (the toggle keeps scripts simple).
func randomMemberEdit(rng *rand.Rand, w *incremental.Workspace, ids []chg.ClassID, names []string) {
	c := ids[rng.Intn(len(ids))]
	name := names[rng.Intn(len(names))]
	if rng.Float64() < 0.6 {
		_ = w.AddMember(c, chg.Member{Name: name, Kind: chg.Method, Static: rng.Float64() < 0.3})
	} else {
		_ = w.RemoveMember(c, name)
	}
}

// warmSnapshot queries every (class, member) entry so the lazy cache
// is fully populated before the next republish carries it.
func warmSnapshot(s *Snapshot) {
	g := s.Graph()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			s.Lookup(chg.ClassID(c), chg.MemberID(m))
		}
	}
}

// diffAgainstColdBuild pins every entry of the snapshot cell-for-cell
// against a cold BuildTable of the same graph with the same
// options — carried snapshots must be indistinguishable from cold ones.
func diffAgainstColdBuild(t *testing.T, label string, s *Snapshot, opts []core.Option) {
	t.Helper()
	g := s.Graph()
	table := core.NewKernel(g, opts...).BuildTable()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			got := s.Lookup(chg.ClassID(c), chg.MemberID(m))
			want := table.Lookup(chg.ClassID(c), chg.MemberID(m))
			if !got.Equal(want) {
				t.Fatalf("%s: (%s, %s): carried %v vs cold %v",
					label, g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)), got, want)
			}
		}
	}
}

// The differential acceptance test: across random edit scripts, every
// Sync-published snapshot — whose cache was seeded by carry-over from
// a fully warmed predecessor — answers exactly like a cold batched
// build, for every option combination and on both pool paths
// (shared and force-compacted).
func TestSyncCarriedMatchesColdBuild(t *testing.T) {
	for _, compact := range []bool{false, true} {
		mode := "pool-shared"
		if compact {
			mode = "pool-compacted"
		}
		for oname, opts := range carryOptSets() {
			opts := opts
			t.Run(mode+"/"+oname, func(t *testing.T) {
				if compact {
					oldMin, oldPolicy := carryCompactMinGarbage, carryShouldCompact
					carryCompactMinGarbage = 1
					carryShouldCompact = func(live, garbage int) bool { return garbage > 0 }
					defer func() { carryCompactMinGarbage, carryShouldCompact = oldMin, oldPolicy }()
				}
				rng := rand.New(rand.NewSource(int64(len(oname)) * 1317))
				w, ids := randomEditableWorkspace(rng, 24)
				names := []string{"m0", "m1", "m2", "m3"}
				for i := 0; i < 12; i++ {
					randomMemberEdit(rng, w, ids, names)
				}
				e := New()
				b, snap, err := e.BindWorkspace("h", w, opts...)
				if err != nil {
					t.Fatal(err)
				}
				carriedTotal, compactions := 0, 0
				for round := 0; round < 10; round++ {
					warmSnapshot(snap)
					for k := rng.Intn(3) + 1; k > 0; k-- {
						randomMemberEdit(rng, w, ids, names)
					}
					if rng.Float64() < 0.25 {
						id, err := w.AddClass(fmt.Sprintf("N%d", round), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))], Virtual: rng.Float64() < 0.4}})
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, id)
					}
					snap, err = b.Sync()
					if err != nil {
						t.Fatal(err)
					}
					st := snap.Carry()
					carriedTotal += st.Carried
					if st.PoolCompacted {
						compactions++
					}
					if got := snap.CachedEntries(); got < st.Carried {
						t.Fatalf("round %d: carried %d cells but only %d cached", round, st.Carried, got)
					}
					diffAgainstColdBuild(t, fmt.Sprintf("round %d", round), snap, opts)
				}
				if carriedTotal == 0 {
					t.Error("no cells were ever carried across ten warm republishes")
				}
				if compact && compactions == 0 {
					t.Error("forced-compaction mode never compacted the pool")
				}
			})
		}
	}
}

// The carry must be cone-exact on a known hierarchy: an edit at depth
// 55 of a 60-chain invalidates exactly the 5 warm entries below it and
// carries the rest.
func TestCarryStatsConeExact(t *testing.T) {
	w := incremental.New()
	prev, _ := w.AddClass("C0", nil)
	if err := w.AddMember(prev, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	ids := []chg.ClassID{prev}
	for i := 1; i < 60; i++ {
		cur, _ := w.AddClass(fmt.Sprintf("C%d", i), []incremental.BaseDecl{{Class: prev}})
		ids = append(ids, cur)
		prev = cur
	}
	e := New()
	b, snap, err := e.BindWorkspace("chain", w)
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot(snap)
	if got := snap.CachedEntries(); got != 60 {
		t.Fatalf("warm cache holds %d entries, want 60", got)
	}
	if err := w.AddMember(ids[55], chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	snap2, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	st := snap2.Carry()
	if st.Invalidated != 5 || st.Carried != 55 {
		t.Fatalf("carry stats = %+v, want 55 carried / 5 invalidated", st)
	}
	if got := snap2.CachedEntries(); got != 55 {
		t.Fatalf("carried snapshot holds %d entries before refill, want 55", got)
	}
	// The old version is untouched and still answers the old way.
	if r := snap.Lookup(ids[59], chg.MemberID(0)); r.Def().L != ids[0] {
		t.Errorf("old snapshot changed: %v", r)
	}
	if r := snap2.Lookup(ids[59], chg.MemberID(0)); r.Def().L != ids[55] {
		t.Errorf("new snapshot wrong: %v", r)
	}
	diffAgainstColdBuild(t, "chain", snap2, nil)
}

// UpdateCarried must fall back to a cold snapshot when the graphs are
// not an edit sequence apart — never fail, never carry unsoundly.
func TestUpdateCarriedFallsBackCold(t *testing.T) {
	g1 := chg.NewBuilder()
	a := g1.Class("A")
	g1.Method(a, "m")
	gA := g1.MustBuild()

	g2 := chg.NewBuilder()
	b := g2.Class("B") // different class name: prefix mismatch
	g2.Method(b, "m")
	gB := g2.MustBuild()

	e := New()
	if _, err := e.UpdateCarried("nope", gA, nil); err == nil {
		t.Error("UpdateCarried on an unregistered name should fail")
	}
	if _, err := e.Register("h", gA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateCarried("h", nil, nil); err == nil {
		t.Error("UpdateCarried with a nil graph should fail")
	}
	snap, err := e.UpdateCarried("h", gB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 2 {
		t.Errorf("version = %d, want 2", snap.Version())
	}
	if st := snap.Carry(); st.Carried != 0 || st.Invalidated != 0 || st.PoolShared {
		t.Errorf("incompatible update should publish cold, got %+v", st)
	}
	if r := snap.LookupByName("B", "m"); r.Def().L != b {
		t.Errorf("fallback snapshot answers wrong: %v", r)
	}
}

// Concurrent readers hammer current and historical snapshots — payload
// accessors included — while the single writer edits and republishes
// with warm carry-over. Run under -race; the final snapshot is then
// pinned against a cold build.
func TestSyncRepublishCarryStress(t *testing.T) {
	opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths()}
	rng := rand.New(rand.NewSource(91))
	w, ids := randomEditableWorkspace(rng, 30)
	names := []string{"m0", "m1", "m2"}
	for i := 0; i < 15; i++ {
		randomMemberEdit(rng, w, ids, names)
	}
	e := New()
	b, snap, err := e.BindWorkspace("stress", w, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	published := []*Snapshot{snap}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				s := published[rng.Intn(len(published))]
				mu.Unlock()
				g := s.Graph()
				c := chg.ClassID(rng.Intn(g.NumClasses()))
				m := chg.MemberID(rng.Intn(g.NumMemberNames()))
				res := s.Lookup(c, m)
				// Touch every payload accessor so -race sees the reads.
				_ = res.Blue()
				_ = res.Path()
				_ = res.StaticSet()
				_ = res.Def()
			}
		}(int64(1000 + r))
	}

	for i := 0; i < 150; i++ {
		randomMemberEdit(rng, w, ids, names)
		// Warm a slice of the current snapshot so the next publish has
		// something to carry.
		g := snap.Graph()
		for q := 0; q < 40; q++ {
			snap.Lookup(chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
		}
		snap, err = b.Sync()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		published = append(published, snap)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	diffAgainstColdBuild(t, "final", snap, opts)
}

// Carry across growth: odd rounds add a class and intern a new member
// name, so shared runs grow over the added class and the new name
// starts from a fresh run, while the edited members' runs are copied
// and cone-cleared. Every published snapshot must match a cold build.
// Run under -race to catch a clear or fill writing a run another
// version reads.
func TestCarryGrowthMatchesColdBuild(t *testing.T) {
	for _, seed := range []int64{777, 1554, 3885} {
		rng := rand.New(rand.NewSource(seed))
		w, ids := randomEditableWorkspace(rng, 40)
		names := []string{"m0", "m1", "m2", "m3", "m4"}
		for i := 0; i < 30; i++ {
			randomMemberEdit(rng, w, ids, names)
		}
		e := New()
		b, snap, err := e.BindWorkspace("grow", w, core.WithStaticRule())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			warmSnapshot(snap)
			for k := rng.Intn(4) + 1; k > 0; k-- {
				randomMemberEdit(rng, w, ids, names)
			}
			grow := round%2 == 1
			if grow {
				id, err := w.AddClass(fmt.Sprintf("N%d", round), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))], Virtual: rng.Float64() < 0.4}})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				name := fmt.Sprintf("n%d", round)
				if err := w.AddMember(ids[rng.Intn(len(ids))], chg.Member{Name: name, Kind: chg.Method}); err != nil {
					t.Fatal(err)
				}
				names = append(names, name)
			}
			snap, err = b.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if st := snap.Carry(); grow && st.Carried == 0 {
				t.Fatalf("seed %d round %d: growth round carried nothing, stats %+v", seed, round, st)
			}
			diffAgainstColdBuild(t, fmt.Sprintf("seed %d round %d", seed, round), snap, []core.Option{core.WithStaticRule()})
		}
	}
}

// A hand-built cone may list a member twice; both entries clear the
// same copied run, and the carry stays exact.
func TestCarryDuplicateMemberCone(t *testing.T) {
	bld := chg.NewBuilder()
	a := bld.Class("A")
	bld.Method(a, "m")
	c := bld.Class("C")
	bld.Base(c, a, chg.NonVirtual)
	g1 := bld.MustBuild()

	bld2 := chg.NewBuilder()
	a2 := bld2.Class("A")
	bld2.Method(a2, "m")
	c2 := bld2.Class("C")
	bld2.Base(c2, a2, chg.NonVirtual)
	bld2.Method(c2, "m")
	g2 := bld2.MustBuild()

	e := New()
	snap, err := e.Register("dup", g1)
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot(snap)
	cone := bitset.New(g2.NumClasses())
	cone.Add(int(c2))
	dup := []incremental.MemberCone{
		{Member: 0, Classes: cone},
		{Member: 0, Classes: cone},
	}
	snap2, err := e.UpdateCarried("dup", g2, dup)
	if err != nil {
		t.Fatal(err)
	}
	if st := snap2.Carry(); st.Carried != 1 || st.Invalidated != 1 {
		t.Fatalf("carry stats = %+v, want 1 carried / 1 invalidated", st)
	}
	if r := snap2.Lookup(c2, 0); r.Def().L != c2 {
		t.Fatalf("post-edit lookup = %v, want def at C", r)
	}
	diffAgainstColdBuild(t, "dup-cone", snap2, nil)
}
