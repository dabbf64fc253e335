package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// c3OrderConflict is the classic C3 order disagreement: X(A, B) and
// Y(B, A), so Z(X, Y) and its derived W cannot linearize.
func c3OrderConflict() *chg.Graph {
	b := chg.NewBuilder()
	a, bb := b.Class("A"), b.Class("B")
	x, y := b.Class("X"), b.Class("Y")
	z, w := b.Class("Z"), b.Class("W")
	b.Base(x, a, chg.NonVirtual)
	b.Base(x, bb, chg.NonVirtual)
	b.Base(y, bb, chg.NonVirtual)
	b.Base(y, a, chg.NonVirtual)
	b.Base(z, x, chg.NonVirtual)
	b.Base(z, y, chg.NonVirtual)
	b.Base(w, z, chg.NonVirtual)
	b.Method(a, "f")
	b.Method(x, "g")
	return b.MustBuild()
}

// assertWarmRuns checks that every word of every column of s is
// published and that each run counts exactly the words it holds.
func assertWarmRuns(t *testing.T, label string, s *Snapshot) {
	t.Helper()
	for _, col := range s.cols {
		for m, r := range col.runs {
			filled := 0
			for c := range r.words {
				if atomic.LoadUint64(&r.words[c]) != 0 {
					filled++
				}
			}
			if filled != len(r.words) {
				t.Fatalf("%s: %s run %d has %d of %d words filled", label, col.id, m, filled, len(r.words))
			}
			if r.st.filled.Load() != int64(filled) {
				t.Fatalf("%s: %s run %d counts %d words, holds %d", label, col.id, m, r.st.filled.Load(), filled)
			}
		}
	}
}

// assertSameAnswers compares got's answer for every backend, class and
// member with want's.
func assertSameAnswers(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	g := want.Graph()
	for _, id := range want.Semantics() {
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				cid, mid := chg.ClassID(c), chg.MemberID(m)
				w, _ := want.LookupSem(id, cid, mid)
				r, ok := got.LookupSem(id, cid, mid)
				if !ok {
					t.Fatalf("%s: %s not served", label, id)
				}
				if !r.Equal(w) {
					t.Fatalf("%s: %s %s::%s = %s, want %s",
						label, id, g.Name(cid), g.MemberName(mid), r.Format(g), w.Format(g))
				}
			}
		}
	}
}

// TestWarmAllMatchesLazy pins WarmAll's contract: a warmed snapshot
// holds every cell of every column, each equal to what a lazy fill
// computes and counted once in its run — also while lookups fill the
// same runs, and on a carried successor whose runs its predecessor
// shares.
func TestWarmAllMatchesLazy(t *testing.T) {
	optSets := map[string][]core.Option{
		"dominance+c3+gxx":       {core.WithSemantics(core.SemC3, core.SemGxx)},
		"dominance/static+paths": {core.WithStaticRule(), core.WithTrackPaths()},
	}
	graphs := map[string]*chg.Graph{
		"figure1":           hiergen.Figure1(),
		"figure2":           hiergen.Figure2(),
		"figure3":           hiergen.Figure3(),
		"figure9":           hiergen.Figure9(),
		"c3-order-conflict": c3OrderConflict(),
		// 400 names: seven 64-member blocks.
		"sparse-multiblock": hiergen.SparseMembers(60, 400, 3, 17),
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 6; i++ {
		graphs[fmt.Sprintf("random%d", i)] = hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(60), MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 1 + rng.Intn(100), MemberProb: 0.1,
			StaticProb: 0.2, Seed: rng.Int63(),
		})
	}
	for oname, opts := range optSets {
		for gname, g := range graphs {
			label := oname + "/" + gname
			warm := NewSnapshot(g, opts...)
			warm.WarmAll()
			for _, id := range warm.Semantics() {
				if got, want := warm.SemCachedEntries(id), g.NumClasses()*g.NumMemberNames(); got != want {
					t.Fatalf("%s: %s caches %d cells after WarmAll, want %d", label, id, got, want)
				}
			}
			assertWarmRuns(t, label, warm)
			assertSameAnswers(t, label, warm, NewSnapshot(g, opts...))
		}
	}

	opts := []core.Option{core.WithSemantics(core.SemC3, core.SemGxx)}

	t.Run("concurrent", func(t *testing.T) {
		g := hiergen.SparseMembers(120, 300, 3, 7)
		snap := NewSnapshot(g, opts...)
		ids := snap.Semantics()
		var stop atomic.Bool
		var ready, wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			ready.Add(1)
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; !stop.Load(); i++ {
					snap.LookupSem(ids[rng.Intn(len(ids))],
						chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
					if i == 0 {
						ready.Done()
					}
				}
			}(int64(w + 1))
		}
		// A second warm-up races the first one too.
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap.WarmAll()
		}()
		ready.Wait()
		snap.WarmAll()
		stop.Store(true)
		wg.Wait()
		assertWarmRuns(t, "concurrent", snap)
		assertSameAnswers(t, "concurrent", snap, NewSnapshot(g, opts...))
	})

	t.Run("carried", func(t *testing.T) {
		g := hiergen.SparseMembers(80, 200, 3, 7)
		ws, err := incremental.FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		b, pred, err := New().BindWorkspace("warm", ws, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Leave the predecessor half cold, so that the successor's
		// warm-up fills words of the runs the two share.
		for _, id := range pred.Semantics() {
			for m := 0; m < g.NumMemberNames(); m += 2 {
				for c := 0; c < g.NumClasses(); c++ {
					pred.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				}
			}
		}
		target, name := g.Roots()[0], g.MemberName(0)
		if err := ws.AddMember(target, chg.Member{Name: name, Kind: chg.Method}); err != nil {
			if err := ws.RemoveMember(target, name); err != nil {
				t.Fatal(err)
			}
		}
		succ, err := b.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if all := len(pred.cols) * g.NumMemberNames() * g.NumClasses(); succ.Carry().Copied >= all {
			t.Fatalf("carry copied %d of %d words: no run is shared", succ.Carry().Copied, all)
		}
		succ.WarmAll()
		assertWarmRuns(t, "carried successor", succ)
		assertSameAnswers(t, "carried successor", succ, NewSnapshot(succ.Graph(), opts...))
		assertSameAnswers(t, "predecessor", pred, NewSnapshot(g, opts...))
	})
}
