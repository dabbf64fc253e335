package devirt

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

var allSems = []core.SemanticsID{core.SemDominance, core.SemC3, core.SemGxx}

func testGraphs() map[string]func() *chg.Graph {
	return map[string]func() *chg.Graph{
		"figure1": hiergen.Figure1,
		"figure2": hiergen.Figure2,
		"figure3": hiergen.Figure3,
		"figure9": hiergen.Figure9,
		"sparse":  func() *chg.Graph { return hiergen.SparseMembers(90, 150, 3, 7) },
		"random": func() *chg.Graph {
			return hiergen.Random(hiergen.RandomConfig{
				Classes: 120, MaxBases: 3, VirtualProb: 0.3,
				MemberNames: 10, MemberProb: 0.12, Seed: 23,
			})
		},
		"giant": func() *chg.Graph {
			return hiergen.Giant(hiergen.GiantConfig{
				Classes: 500, MemberNames: 64, Interfaces: 6, FatWidth: 12,
				TowerHeight: 3, ChainLen: 5, Decls: 700, VirtualProb: 0.35, Seed: 13,
			})
		},
	}
}

// oracleTargets is the brute-force CHA oracle: enumerate the cone by
// probing IsBase across every class, look each receiver up one at a
// time, collect the distinct declaring classes of the Found results.
func oracleTargets(t *testing.T, snap *engine.Snapshot, sem core.SemanticsID, c chg.ClassID, m chg.MemberID) Resolution {
	t.Helper()
	g := snap.Graph()
	res := Resolution{Root: c, Member: m}
	if !g.Valid(c) || m < 0 || int(m) >= g.NumMemberNames() {
		return res
	}
	seen := map[chg.ClassID]struct{}{}
	for d := 0; d < g.NumClasses(); d++ {
		did := chg.ClassID(d)
		if did != c && !g.IsBase(c, did) {
			continue
		}
		res.Cone++
		lr, ok := snap.LookupSem(sem, did, m)
		if !ok {
			t.Fatalf("backend %s not served", sem)
		}
		if lr.Found() {
			seen[lr.Class()] = struct{}{}
		}
	}
	for d := range seen {
		res.Targets = append(res.Targets, d)
	}
	sort.Slice(res.Targets, func(i, j int) bool { return res.Targets[i] < res.Targets[j] })
	res.Monomorphic = len(res.Targets) == 1
	return res
}

func sameTargets(a, b []chg.ClassID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAgainstOracle(t *testing.T, g *chg.Graph, name string) {
	t.Helper()
	snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	for _, sem := range allSems {
		r, err := New(snap, sem)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				want := oracleTargets(t, snap, sem, cid, mid)
				got := r.ResolveTargets(cid, mid)
				if !sameTargets(got.Targets, want.Targets) {
					t.Fatalf("%s/%s: targets of (%s, %s) = %v, want %v",
						name, sem, g.Name(cid), g.MemberName(mid), got.Targets, want.Targets)
				}
				if got.Cone != want.Cone {
					t.Fatalf("%s/%s: cone of (%s, %s) = %d, want %d",
						name, sem, g.Name(cid), g.MemberName(mid), got.Cone, want.Cone)
				}
				if got.Monomorphic != want.Monomorphic {
					t.Fatalf("%s/%s: monomorphic mismatch at (%s, %s)",
						name, sem, g.Name(cid), g.MemberName(mid))
				}
			}
		}
	}
}

// TestResolveTargetsOracle pins ResolveTargets, whose cones come from
// chg.EachDescendant's walk, against the brute-force oracle's IsBase
// probes on every fixture and seeded generator, all three backends.
func TestResolveTargetsOracle(t *testing.T) {
	for name, build := range testGraphs() {
		name, build := name, build
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, build(), name) })
	}
}

// TestResolveTargetsOracleSparseCones resolves every (class, member)
// of a fresh graph under all three backends before anything builds its
// Descendants matrix, so each cone is chg.EachDescendant's walk over
// the direct-derived lists alone; it then checks every answer against
// the brute-force oracle and every cone size against the graph's
// Descendants closure row.
func TestResolveTargetsOracleSparseCones(t *testing.T) {
	for _, name := range []string{"figure9", "random", "giant"} {
		build := testGraphs()[name]
		t.Run(name, func(t *testing.T) {
			g := build()
			snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
			got := map[core.SemanticsID][]Resolution{}
			for _, sem := range allSems {
				r, err := New(snap, sem)
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < g.NumClasses(); c++ {
					for m := 0; m < g.NumMemberNames(); m++ {
						got[sem] = append(got[sem], r.ResolveTargets(chg.ClassID(c), chg.MemberID(m)))
					}
				}
			}
			for _, sem := range allSems {
				for _, res := range got[sem] {
					if want := oracleTargets(t, snap, sem, res.Root, res.Member); !sameAnswer(res, want) {
						t.Fatalf("%s/%s: (%s, %s) = %+v, oracle %+v",
							name, sem, g.Name(res.Root), g.MemberName(res.Member), res, want)
					}
					if want := 1 + g.Descendants(res.Root).Count(); res.Cone != want {
						t.Fatalf("%s/%s: cone of %s = %d, Descendants row gives %d",
							name, sem, g.Name(res.Root), res.Cone, want)
					}
				}
			}
		})
	}
}

// batchSites draws a shuffled batch over g: duplicated sites on a
// quarter of the member names plus out-of-range ids.
func batchSites(g *chg.Graph, seed int64) []Site {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Site, 0, 4000)
	for i := 0; i < 3600; i++ {
		sites = append(sites, Site{
			Class:  chg.ClassID(rng.Intn(g.NumClasses())),
			Member: chg.MemberID(rng.Intn(max(g.NumMemberNames()/4, 1))), // force duplicates
		})
	}
	for i := 0; i < 64; i++ {
		sites = append(sites, Site{chg.ClassID(rng.Intn(g.NumClasses()+8) - 4), chg.MemberID(rng.Intn(g.NumMemberNames()+8) - 4)})
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return sites
}

// memoOracle returns oracleTargets over snap, memoized per (backend,
// site) so batch tests check every duplicate site without redoing its
// brute force.
func memoOracle(t *testing.T, snap *engine.Snapshot) func(core.SemanticsID, Site) Resolution {
	type key struct {
		sem core.SemanticsID
		s   Site
	}
	memo := map[key]Resolution{}
	return func(sem core.SemanticsID, s Site) Resolution {
		res, ok := memo[key{sem, s}]
		if !ok {
			res = oracleTargets(t, snap, sem, s.Class, s.Member)
			memo[key{sem, s}] = res
		}
		return res
	}
}

// sameAnswer reports whether got carries want's site, targets, cone
// and monomorphic flag.
func sameAnswer(got, want Resolution) bool {
	return got.Root == want.Root && got.Member == want.Member &&
		sameTargets(got.Targets, want.Targets) && got.Cone == want.Cone &&
		got.Monomorphic == want.Monomorphic
}

// checkBatch resolves one batch under every backend with Workers 1
// and 4 and checks every site's Resolution against the brute-force
// oracle and against ResolveTargets.
func checkBatch(t *testing.T, g *chg.Graph) {
	t.Helper()
	snap := engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	oracle := memoOracle(t, engine.NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx)))
	sites := batchSites(g, 4)
	for _, sem := range allSems {
		for _, workers := range []int{1, 4} {
			r, err := New(snap, sem)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = workers
			got := r.ResolveBatch(sites, nil)
			if len(got) != len(sites) {
				t.Fatalf("%d resolutions for %d sites", len(got), len(sites))
			}
			single, err := New(snap, sem)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range sites {
				if want := oracle(sem, s); !sameAnswer(got[i], want) {
					t.Fatalf("%s w=%d: batch resolution %d = %+v, oracle %+v", sem, workers, i, got[i], want)
				}
				if want := single.ResolveTargets(s.Class, s.Member); !sameAnswer(got[i], want) {
					t.Fatalf("%s w=%d: batch resolution %d disagrees with ResolveTargets", sem, workers, i)
				}
			}
		}
	}
}

// TestResolveBatch checks the batch path on duplicated shuffled sites
// (plus invalid ids) under Workers 1 and 4 and all three backends:
// every site's Resolution equals the brute-force oracle's and its
// ResolveTargets answer. The dense run builds the graph's Bases and
// Descendants matrices first; the sparse run never builds the
// Descendants matrix, which neither the resolver nor the oracle reads.
// Both must give the same answers: the cones never depend on which
// closure matrices a graph happens to hold.
func TestResolveBatch(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		g := testGraphs()["giant"]()
		g.Descendants(0) // materializes both closure matrices
		checkBatch(t, g)
	})
	t.Run("sparse", func(t *testing.T) { checkBatch(t, testGraphs()["giant"]()) })
}

// TestResolveBatchWorkPerMember pins the recurrence's work, counted
// independently of the host: one batch looks up each class of a
// member's cone union once, not once per root whose cone holds it,
// walks each distinct root's cone once to size it, and a second batch
// reuses those sizes but not the per-batch target sets.
func TestResolveBatchWorkPerMember(t *testing.T) {
	g := testGraphs()["giant"]()
	snap := engine.NewSnapshot(g)
	r, err := New(snap, core.SemDominance)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 1
	sites := batchSites(g, 9)

	union := map[chg.MemberID]map[chg.ClassID]bool{}
	roots := map[chg.ClassID]bool{}
	for _, s := range sites {
		if !g.Valid(s.Class) || s.Member < 0 || int(s.Member) >= g.NumMemberNames() {
			continue
		}
		roots[s.Class] = true
		u := union[s.Member]
		if u == nil {
			u = map[chg.ClassID]bool{}
			union[s.Member] = u
		}
		for d := 0; d < g.NumClasses(); d++ {
			if did := chg.ClassID(d); did == s.Class || g.IsBase(s.Class, did) {
				u[did] = true
			}
		}
	}
	receivers := 0
	for _, u := range union {
		receivers += len(u)
	}

	r.ResolveBatch(sites, nil)
	if got := r.receivers.Load(); got != int64(receivers) {
		t.Errorf("first batch looked up %d receivers, want the %d classes of the members' cone unions", got, receivers)
	}
	if got := r.coneWalks.Load(); got != int64(len(roots)) {
		t.Errorf("first batch made %d cone walks, want one per distinct root (%d)", got, len(roots))
	}
	r.ResolveBatch(sites, nil)
	if got := r.receivers.Load(); got != 2*int64(receivers) {
		t.Errorf("two batches looked up %d receivers, want %d: target sets are per batch", got, 2*receivers)
	}
	if got := r.coneWalks.Load(); got != int64(len(roots)) {
		t.Errorf("second batch made %d more cone walks, want 0", got-int64(len(roots)))
	}
}

// TestResolverConcurrentCallers shares one Resolver between goroutines
// mixing ResolveBatch and ResolveTargets over overlapping sites on a
// cold snapshot with BFS cones, so the cone-size cache and the cell
// fills race; every answer must equal the oracle's. CI runs it under
// -race repeatedly.
func TestResolverConcurrentCallers(t *testing.T) {
	g := testGraphs()["giant"]()
	oracle := memoOracle(t, engine.NewSnapshot(g))
	sites := batchSites(g, 17)[:1200]
	want := make([]Resolution, len(sites))
	for i, s := range sites {
		want[i] = oracle(core.SemDominance, s)
	}

	for _, workers := range []int{0, 2} {
		r, err := New(engine.NewSnapshot(g), core.SemDominance)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		const callers = 6
		errs := make(chan string, callers)
		var wg sync.WaitGroup
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				// Each caller takes an overlapping window of the sites.
				lo := k * len(sites) / (2 * callers)
				part := sites[lo : lo+len(sites)/2]
				if k%2 == 0 {
					for i, got := range r.ResolveBatch(part, nil) {
						if !sameAnswer(got, want[lo+i]) {
							errs <- fmt.Sprintf("w=%d caller %d: batch site %d = %+v, oracle %+v", workers, k, lo+i, got, want[lo+i])
							return
						}
					}
					return
				}
				for i, s := range part {
					if got := r.ResolveTargets(s.Class, s.Member); !sameAnswer(got, want[lo+i]) {
						errs <- fmt.Sprintf("w=%d caller %d: site %d = %+v, oracle %+v", workers, k, lo+i, got, want[lo+i])
						return
					}
				}
			}(k)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestResolverUnknownBackend: constructing against a backend the
// snapshot does not serve fails.
func TestResolverUnknownBackend(t *testing.T) {
	snap := engine.NewSnapshot(hiergen.Figure1())
	if _, err := New(snap, core.SemC3); err == nil {
		t.Fatal("New accepted an unserved backend")
	}
}

// TestResolveBatchAppend checks the append contract and empty input.
func TestResolveBatchAppend(t *testing.T) {
	snap := engine.NewSnapshot(hiergen.Figure9())
	r, err := New(snap, core.SemDominance)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []Resolution{{Root: -7}}
	out := r.ResolveBatch([]Site{{0, 0}}, prefix)
	if len(out) != 2 || out[0].Root != -7 {
		t.Fatal("existing out elements disturbed")
	}
	if got := r.ResolveBatch(nil, nil); len(got) != 0 {
		t.Fatal("empty batch produced resolutions")
	}
}
