package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// benchGiant is the benchmark's Giant shape — the 512-name member
// universe over classes classes — for tests that measure what a
// benchmark-sized republish costs.
func benchGiant(classes int) *chg.Graph {
	cfg := hiergen.GiantDefaults(classes)
	cfg.MemberNames = 512
	cfg.VirtualProb = 0.35
	cfg.Seed = 1997
	return hiergen.Giant(cfg)
}

// applyScriptOp replays one hiergen edit-script op: a class add, or a
// toggle that removes the member when the class declares it and adds
// it otherwise.
func applyScriptOp(t *testing.T, w *incremental.Workspace, op hiergen.EditOp) {
	t.Helper()
	var err error
	if op.IsClassAdd() {
		var bases []incremental.BaseDecl
		for _, name := range op.BaseNames {
			id, ok := w.ID(name)
			if !ok {
				t.Fatalf("%s: unknown base %s", op, name)
			}
			bases = append(bases, incremental.BaseDecl{Class: id})
		}
		_, err = w.AddClass(op.NewClass, bases)
	} else if c, ok := w.ID(op.Class); !ok {
		t.Fatalf("%s: unknown class", op)
	} else if w.DeclaresName(c, op.Member) {
		err = w.RemoveMember(c, op.Member)
	} else {
		err = w.AddMember(c, chg.Member{Name: op.Member, Kind: chg.Method})
	}
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
}

// A republish copies exactly the edited members' runs: every other
// member's run is shared with the predecessor, and class adds that fit
// the runs' spare room extend the shared runs in place. The first sync
// that adds a class copies every run out of the cold snapshot's one
// array, whose runs have no spare room; later rounds copy only what
// the cone lists.
func TestCarryCopiesOnlyEditedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, ids := randomEditableWorkspace(rng, 40)
	names := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	for i := 0; i < 40; i++ {
		randomMemberEdit(rng, w, ids, names)
	}
	e := New()
	b, snap, err := e.BindWorkspace("copy", w)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		warmSnapshot(snap)
		oldN, oldM := snap.Graph().NumClasses(), snap.Graph().NumMemberNames()
		randomMemberEdit(rng, w, ids, names)
		randomMemberEdit(rng, w, ids, names)
		if round%3 != 2 {
			id, err := w.AddClass(fmt.Sprintf("N%d", round), []incremental.BaseDecl{{Class: ids[rng.Intn(len(ids))]}})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		res, err := b.SyncDetail()
		if err != nil {
			t.Fatal(err)
		}
		snap = res.Snapshot
		st := snap.Carry()
		if !res.Carried || st.PoolCompacted {
			t.Fatalf("round %d: want a carried, uncompacted republish, got %+v", round, st)
		}
		edited := 0
		for _, ce := range res.Cone {
			if int(ce.Member) < oldM {
				edited++
			}
		}
		if round == 0 {
			continue // the copy out of the cold snapshot's capped runs
		}
		if want := edited * oldN; st.Copied != want {
			t.Fatalf("round %d: copied %d words, want %d (%d edited runs of %d words)", round, st.Copied, want, edited, oldN)
		}
		diffAgainstColdBuild(t, fmt.Sprintf("round %d", round), snap, nil)
	}
}

// Two engines adopt one carried snapshot and add different classes:
// only one successor may extend a shared run over its spare room, the
// other must copy, and neither may see the other's fills. Each
// successor must match a cold build, count its carried cells exactly,
// and leave the common predecessor answering its own hierarchy.
func TestCarryForkedSuccessorsMatchColdBuild(t *testing.T) {
	// base replays one history into a fresh workspace, so that three
	// workspaces agree on every class and member id.
	base := func() (*incremental.Workspace, []chg.ClassID) {
		rng := rand.New(rand.NewSource(23))
		w, ids := randomEditableWorkspace(rng, 30)
		for i := 0; i < 25; i++ {
			randomMemberEdit(rng, w, ids, []string{"m0", "m1", "m2", "m3"})
		}
		return w, ids
	}
	w0, ids := base()
	e0 := New()
	b0, snap, err := e0.BindWorkspace("base", w0)
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot(snap)
	if _, err := w0.AddClass("Grow", []incremental.BaseDecl{{Class: ids[3]}}); err != nil {
		t.Fatal(err)
	}
	// The fork point: a carried snapshot whose runs have spare room.
	fork, err := b0.Sync()
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot(fork)
	warm := fork.CachedEntries()

	type side struct {
		e    *Engine
		w    *incremental.Workspace
		snap *Snapshot
	}
	sides := make([]side, 2)
	for i := range sides {
		w, _ := base()
		if _, err := w.AddClass("Grow", []incremental.BaseDecl{{Class: ids[3]}}); err != nil {
			t.Fatal(err)
		}
		e := New()
		if err := e.Adopt("fork", fork); err != nil {
			t.Fatal(err)
		}
		gen := w.Generation()
		leaf, err := w.AddClass(fmt.Sprintf("Leaf%d", i), []incremental.BaseDecl{{Class: ids[5+10*i]}, {Class: ids[20-i], Virtual: true}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddMember(ids[7+i], chg.Member{Name: fmt.Sprintf("m%d", i), Kind: chg.Method}); err != nil && !w.DeclaresName(ids[7+i], fmt.Sprintf("m%d", i)) {
			t.Fatal(err)
		}
		if err := w.AddMember(leaf, chg.Member{Name: "m3", Kind: chg.Method}); err != nil {
			t.Fatal(err)
		}
		g, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cone, ok := w.InvalidationConeSince(gen)
		if !ok {
			t.Fatal("edit log did not cover the window")
		}
		s, err := e.UpdateCarried("fork", g, cone)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Carry()
		if st.Carried+st.Invalidated != warm {
			t.Fatalf("side %d: carried %d + invalidated %d, want the fork point's %d cells", i, st.Carried, st.Invalidated, warm)
		}
		// Fill every cell, the added class's included, before the
		// other side carries.
		warmSnapshot(s)
		sides[i] = side{e: e, w: w, snap: s}
	}
	for i, sd := range sides {
		diffAgainstColdBuild(t, fmt.Sprintf("side %d", i), sd.snap, nil)
	}
	diffAgainstColdBuild(t, "fork point", fork, nil)
	if got := fork.CachedEntries(); got != warm {
		t.Fatalf("fork point holds %d cells after both successors filled, want %d", got, warm)
	}
}

// A compaction chains the successor to a fresh pool and rewrites the
// payload index of every word, so it must copy the runs the successor
// shares with its predecessor: the predecessor keeps answering its own
// hierarchy over the old pool.
func TestCompactionLeavesPredecessorIntact(t *testing.T) {
	oldMin, oldPolicy := carryCompactMinGarbage, carryShouldCompact
	carryCompactMinGarbage = 1
	carryShouldCompact = func(live, garbage int) bool { return garbage > 0 }
	defer func() { carryCompactMinGarbage, carryShouldCompact = oldMin, oldPolicy }()

	opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths()}
	rng := rand.New(rand.NewSource(41))
	w, ids := randomEditableWorkspace(rng, 24)
	names := []string{"m0", "m1", "m2", "m3"}
	for i := 0; i < 12; i++ {
		randomMemberEdit(rng, w, ids, names)
	}
	b, snap, err := New().BindWorkspace("compact", w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	compactions := 0
	for round := 0; round < 10; round++ {
		warmSnapshot(snap)
		prev := snap
		for k := rng.Intn(3) + 1; k > 0; k-- {
			randomMemberEdit(rng, w, ids, names)
		}
		if snap, err = b.Sync(); err != nil {
			t.Fatal(err)
		}
		if snap.Carry().PoolCompacted {
			compactions++
		}
		diffAgainstColdBuild(t, fmt.Sprintf("round %d predecessor", round), prev, opts)
	}
	if compactions == 0 {
		t.Fatal("forced-compaction mode never compacted the pool")
	}
}

// One carried republish of a benchmark-sized hierarchy (16,000 classes
// × 512 member names) allocates what its edited runs need, not a new
// |M|·|N| column (65.5 MB here). The warm-up republish copies every run
// out of the cold snapshot's array; the measured one, like the
// benchmark's rounds, adds a class into the runs' spare room and
// toggles a few members.
func TestCarriedSyncAllocationBounded(t *testing.T) {
	g := benchGiant(16000)
	w, err := incremental.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	b, snap, err := New().BindWorkspace("alloc", w)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range hiergen.CallSites(g, 20000, 1) {
		snap.Lookup(q.Class, q.Member)
	}
	script := hiergen.EditScript(g, 16, 3)
	var before, after runtime.MemStats
	for round := 0; round < 2; round++ {
		ops := append(script[8*round:8*round+8:8*round+8],
			hiergen.EditOp{NewClass: fmt.Sprintf("Added%d", round), BaseNames: []string{g.Name(chg.ClassID(round))}})
		for _, op := range ops {
			applyScriptOp(t, w, op)
		}
		// Freeze first, as the benchmark does: the freeze is the
		// workspace's cost, not the carry's.
		if _, err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := b.SyncDetail()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Carried {
			t.Fatalf("round %d: republish was not carried", round)
		}
	}
	const limit = 4 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("carried SyncDetail allocated %d bytes", got)
	if got >= limit {
		t.Fatalf("carried SyncDetail allocated %d bytes, want under %d", got, limit)
	}
}

// A long benchmark-shaped session — rounds of eight scripted edits, a
// fifth of them class adds, each republish followed by lookups of the
// edited members — weighs its pool only when an upper bound on the
// garbage could meet the compaction rule, which such a session's few
// dropped payloads rarely allow.
func TestPoolWeighedRarely(t *testing.T) {
	g := benchGiant(2000)
	w, err := incremental.FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	b, snap, err := New().BindWorkspace("weigh", w)
	if err != nil {
		t.Fatal(err)
	}
	background := hiergen.CallSites(g, 20000, 1)
	for _, q := range background {
		snap.Lookup(q.Class, q.Member)
	}
	const rounds = 300
	script := hiergen.EditScript(g, 8*rounds, 3)
	weighs := 0
	for round := 0; round < rounds; round++ {
		ops := script[8*round : 8*round+8]
		for _, op := range ops {
			applyScriptOp(t, w, op)
		}
		snap, err = b.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Carry().PoolWeighed {
			weighs++
		}
		sg := snap.Graph()
		for k, op := range ops {
			q := background[(round*len(ops)+k)%len(background)]
			if op.IsClassAdd() {
				c, _ := sg.ID(op.NewClass)
				snap.Lookup(c, q.Member)
				continue
			}
			c, _ := sg.ID(op.Class)
			m, _ := sg.MemberID(op.Member)
			snap.Lookup(c, m)
			snap.Lookup(q.Class, m)
		}
	}
	t.Logf("%d of %d republishes weighed the pool (%d payloads)", weighs, rounds, snap.Pool().Len())
	if weighs > 3 {
		t.Fatalf("%d of %d republishes weighed the pool (%d payloads), want at most 3", weighs, rounds, snap.Pool().Len())
	}
	diffAgainstColdBuild(t, "session end", snap, nil)
}
