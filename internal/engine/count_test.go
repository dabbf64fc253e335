package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/incremental"
)

// wordCounts counts each column's nonzero words directly, through the
// snapshot's cell plane.
func wordCounts(s *Snapshot) []int {
	ids := s.Semantics()
	size := s.numClasses * s.numMembers
	plane := make([]uint64, len(ids)*size)
	s.CopyCells(plane, s.Pool().Image())
	counts := make([]int, len(ids))
	for i := range ids {
		for _, w := range plane[i*size : (i+1)*size] {
			if w != 0 {
				counts[i]++
			}
		}
	}
	return counts
}

// assertCounts checks CachedEntries and SemCachedEntries of s against
// a direct count of its nonzero words.
func assertCounts(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	want := wordCounts(s)
	if got := s.CachedEntries(); got != want[0] {
		t.Fatalf("%s: CachedEntries = %d, holds %d words", label, got, want[0])
	}
	for i, id := range s.Semantics() {
		if got := s.SemCachedEntries(id); got != want[i] {
			t.Fatalf("%s: SemCachedEntries(%s) = %d, holds %d words", label, id, got, want[i])
		}
	}
}

// randomFills looks up up to 40 random cells of s under random backends.
func randomFills(rng *rand.Rand, s *Snapshot) {
	g, sems := s.Graph(), s.Semantics()
	for k := rng.Intn(40); k > 0; k-- {
		s.LookupSem(sems[rng.Intn(len(sems))], chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
	}
}

// loadedCopy returns s as an image loader serves it: its cell plane
// copied out and carved by NewSnapshotFromParts, over a pool adopted
// from s's pool image.
func loadedCopy(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	ids := s.Semantics()
	img := s.Pool().Image()
	plane := make([]uint64, len(ids)*s.numClasses*s.numMembers)
	s.CopyCells(plane, img)
	pool, err := core.PoolFromImage(img, s.numClasses)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewSnapshotFromParts(s.Graph(), pool, ids, plane, s.k.TrackPaths(), s.k.StaticRule())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// syncCompacting syncs b, forcing the carry to compact its pool when
// compact is set.
func syncCompacting(b *WorkspaceBinding, compact bool) (SyncResult, error) {
	if compact {
		oldMin, oldPolicy := carryCompactMinGarbage, carryShouldCompact
		carryCompactMinGarbage = 0
		carryShouldCompact = func(live, garbage int) bool { return true }
		defer func() { carryCompactMinGarbage, carryShouldCompact = oldMin, oldPolicy }()
	}
	return b.SyncDetail()
}

// TestCachedEntriesMatchWords is the differential test of the filled
// counts CachedEntries and SemCachedEntries read from the run stores:
// over seeded sequences of lazy fills, WarmAll calls, carried syncs
// that add classes and toggle members, and forced pool compactions,
// every count of every snapshot published so far — the newest and each
// predecessor, whose views of extended runs are shorter than their
// stores' — must equal a direct count of nonzero words. So must the
// counts of the newest snapshot's plane loaded through
// NewSnapshotFromParts, before and after lazy fills, and of a carried
// successor of that load.
func TestCachedEntriesMatchWords(t *testing.T) {
	opts := []core.Option{core.WithSemantics(core.SemC3, core.SemGxx), core.WithStaticRule()}
	names := []string{"m0", "m1", "m2", "m3", "m4"}
	compactions, shorterViews := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ws, ids := randomEditableWorkspace(rng, 16)
		for i := 0; i < 8; i++ {
			randomMemberEdit(rng, ws, ids, names)
		}
		b, first, err := New().BindWorkspace("h", ws, opts...)
		if err != nil {
			t.Fatal(err)
		}
		snaps := []*Snapshot{first}
		for step := 0; step < 40; step++ {
			var what string
			switch op := rng.Intn(6); {
			case op <= 1:
				s := snaps[rng.Intn(len(snaps))]
				randomFills(rng, s)
				what = fmt.Sprintf("lazy fills of version %d", s.Version())
			case op == 2:
				s := snaps[rng.Intn(len(snaps))]
				s.WarmAll()
				what = fmt.Sprintf("WarmAll of version %d", s.Version())
			default:
				for k := rng.Intn(3); k > 0; k-- {
					randomMemberEdit(rng, ws, ids, names)
				}
				id, err := ws.AddClass(fmt.Sprintf("N%d", step), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))], Virtual: rng.Float64() < 0.4}})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				compact := op == 5
				res, err := syncCompacting(b, compact)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Carried {
					t.Fatalf("seed %d step %d: sync republished cold", seed, step)
				}
				if compact && !res.Snapshot.Carry().PoolCompacted {
					t.Fatalf("seed %d step %d: forced compaction did not compact", seed, step)
				}
				if res.Snapshot.Carry().PoolCompacted {
					compactions++
				}
				snaps = append(snaps, res.Snapshot)
				what = fmt.Sprintf("carried sync to version %d (compacted %v)", res.Snapshot.Version(), res.Snapshot.Carry().PoolCompacted)
			}
			for _, s := range snaps {
				assertCounts(t, fmt.Sprintf("seed %d step %d, after %s: version %d", seed, step, what, s.Version()), s)
			}
		}

		// The newest snapshot as a loader serves it: its plane carved
		// by NewSnapshotFromParts, then lazy fills into the adopted
		// runs, then a carried successor, which copies every one.
		loaded := loadedCopy(t, snaps[len(snaps)-1])
		assertCounts(t, fmt.Sprintf("seed %d, after the load", seed), loaded)
		randomFills(rng, loaded)
		assertCounts(t, fmt.Sprintf("seed %d, after lazy fills into adopted runs", seed), loaded)
		e := New()
		if err := e.Adopt("l", loaded); err != nil {
			t.Fatal(err)
		}
		succ, err := e.UpdateCarried("l", loaded.Graph(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if words := len(loaded.cols) * loaded.numMembers * loaded.numClasses; succ.Carry().Copied != words {
			t.Fatalf("seed %d: the carry from adopted runs copied %d of their %d words", seed, succ.Carry().Copied, words)
		}
		assertCounts(t, fmt.Sprintf("seed %d, carried from the load", seed), succ)
		randomFills(rng, succ)
		assertCounts(t, fmt.Sprintf("seed %d, after lazy fills into the carried successor", seed), succ)
		assertCounts(t, fmt.Sprintf("seed %d, the load after its successor's fills", seed), loaded)
		for _, s := range snaps {
			for _, col := range s.cols {
				for _, r := range col.runs {
					if r.st.claimed.Load() > int64(len(r.words)) {
						shorterViews++
					}
				}
			}
		}
	}
	if compactions == 0 || shorterViews == 0 {
		t.Fatalf("the sequences made %d compactions and left %d runs whose view is shorter than its store; want some of each", compactions, shorterViews)
	}
}
