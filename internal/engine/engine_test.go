package engine

import (
	"slices"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// equivalenceGraphs is the acceptance-criteria corpus: every paper
// figure hierarchy (Figures 4–7 are worked over Figure 3's graph),
// the Figure 9 g++ counterexample, and hiergen random hierarchies.
func equivalenceGraphs() map[string]*chg.Graph {
	gs := map[string]*chg.Graph{
		"figure1": hiergen.Figure1(),
		"figure2": hiergen.Figure2(),
		"figure3": hiergen.Figure3(),
		"figure9": hiergen.Figure9(),
	}
	for _, seed := range []int64{1, 7, 42} {
		gs[nameOfSeed(seed)] = hiergen.Random(hiergen.RandomConfig{
			Classes: 80, MaxBases: 3, VirtualProb: 0.35,
			MemberNames: 6, MemberProb: 0.12, Seed: seed,
		})
	}
	return gs
}

func nameOfSeed(seed int64) string {
	return "random-seed-" + string(rune('0'+seed%10))
}

// TestSnapshotMatchesBuildTable checks, entry for entry, that the
// concurrent snapshot cache and the eager table produce byte-identical
// results over the acceptance corpus — for the default kernel and for
// the full option set.
func TestSnapshotMatchesBuildTable(t *testing.T) {
	optSets := map[string][]core.Option{
		"plain":        nil,
		"static+paths": {core.WithStaticRule(), core.WithTrackPaths()},
	}
	for gname, g := range equivalenceGraphs() {
		for oname, opts := range optSets {
			snap := NewSnapshot(g, opts...)
			table := core.NewKernel(g, opts...).BuildTable()
			for c := 0; c < g.NumClasses(); c++ {
				for m := 0; m < g.NumMemberNames(); m++ {
					cid, mid := chg.ClassID(c), chg.MemberID(m)
					want := table.Lookup(cid, mid)
					got := snap.Lookup(cid, mid)
					if !got.Equal(want) {
						t.Fatalf("%s/%s lookup(%s, %s): snapshot %+v, table %+v",
							gname, oname, g.Name(cid), g.MemberName(mid), got, want)
					}
				}
			}
		}
	}
}

func TestSnapshotRejectsInvalidQueries(t *testing.T) {
	g := hiergen.Figure2()
	snap := NewSnapshot(g)
	for _, q := range []struct{ c, m int }{
		{-1, 0}, {g.NumClasses(), 0}, {0, -1}, {0, g.NumMemberNames()},
	} {
		if r := snap.Lookup(chg.ClassID(q.c), chg.MemberID(q.m)); r.Kind() != core.Undefined {
			t.Errorf("Lookup(%d, %d) = %+v, want undefined", q.c, q.m, r)
		}
	}
	if r := snap.LookupByName("NoSuchClass", "m"); r.Kind() != core.Undefined {
		t.Errorf("LookupByName unknown class = %+v", r)
	}
	if r := snap.LookupByName("E", "nosuchmember"); r.Kind() != core.Undefined {
		t.Errorf("LookupByName unknown member = %+v", r)
	}
}

func TestNewSnapshotNilGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSnapshot(nil) did not panic")
		}
	}()
	NewSnapshot(nil)
}

func TestEngineRegisterUpdateVersioning(t *testing.T) {
	e := New()
	g1 := hiergen.Figure1()
	snap1, err := e.Register("lib", g1)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Name() != "lib" || snap1.Version() != 1 {
		t.Fatalf("first snapshot: name=%q version=%d", snap1.Name(), snap1.Version())
	}
	if _, err := e.Register("lib", g1); err == nil {
		t.Fatal("duplicate Register did not fail")
	}
	if _, err := e.Register("nilcase", nil); err == nil {
		t.Fatal("Register with nil graph did not fail")
	}
	if _, err := e.Update("unknown", g1); err == nil {
		t.Fatal("Update of unregistered name did not fail")
	}

	snap2, err := e.Update("lib", hiergen.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version() != 2 {
		t.Fatalf("updated snapshot version = %d, want 2", snap2.Version())
	}
	cur, ok := e.Snapshot("lib")
	if !ok || cur != snap2 {
		t.Fatal("Snapshot does not return the latest version")
	}
	// The old snapshot still answers against its own graph: Figure 1's
	// E.m is ambiguous, Figure 2's resolves to D.
	if r := snap1.LookupByName("E", "m"); !r.Ambiguous() {
		t.Errorf("v1 (figure 1) lookup(E,m) = %+v, want ambiguous", r)
	}
	if r := snap2.LookupByName("E", "m"); !r.Found() || snap2.Graph().Name(r.Class()) != "D" {
		t.Errorf("v2 (figure 2) lookup(E,m) = %+v, want red D", r)
	}

	// The failed registrations must not leak into the name list.
	if got := e.Names(); len(got) != 1 || got[0] != "lib" {
		t.Errorf("Names() = %v, want [lib]", got)
	}
}

func TestEngineOptionsStickAcrossUpdates(t *testing.T) {
	e := New()
	if _, err := e.Register("lib", hiergen.Figure2(), core.WithTrackPaths()); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Update("lib", hiergen.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	r := snap.LookupByName("E", "m")
	if !r.Found() || len(r.Path()) == 0 {
		t.Fatalf("options were not reused across Update: %+v", r)
	}
}

func TestSnapshotTable(t *testing.T) {
	g := hiergen.Figure3()
	snap := NewSnapshot(g, core.WithStaticRule())
	table := snap.Table()
	if table != snap.Table() {
		t.Fatal("Table is rebuilt per call")
	}
	want := core.NewKernel(g, core.WithStaticRule()).BuildTable()
	if table.Entries() != want.Entries() || table.CountAmbiguous() != want.CountAmbiguous() {
		t.Fatalf("snapshot table entries=%d ambiguous=%d, want %d/%d",
			table.Entries(), table.CountAmbiguous(), want.Entries(), want.CountAmbiguous())
	}
}

func TestWorkspaceBindingPublishesVersions(t *testing.T) {
	ws := incremental.New()
	base, err := ws.AddClass("Base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddMember(base, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	derived, err := ws.AddClass("Derived", []incremental.BaseDecl{{Class: base}})
	if err != nil {
		t.Fatal(err)
	}

	e := New()
	b, snap1, err := e.BindWorkspace("ide", ws)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Version() != 1 {
		t.Fatalf("first version = %d", snap1.Version())
	}
	if r := snap1.LookupByName("Derived", "m"); !r.Found() || snap1.Graph().Name(r.Class()) != "Base" {
		t.Fatalf("v1 lookup(Derived,m) = %+v, want Base", r)
	}

	// No edit → Sync is a no-op, same version.
	same, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if same != snap1 {
		t.Fatal("Sync without edits published a new version")
	}

	// An override in Derived: the new version resolves to Derived, the
	// old snapshot keeps answering Base.
	if err := ws.AddMember(derived, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	snap2, err := b.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version() != 2 {
		t.Fatalf("second version = %d", snap2.Version())
	}
	if r := snap2.LookupByName("Derived", "m"); !r.Found() || snap2.Graph().Name(r.Class()) != "Derived" {
		t.Fatalf("v2 lookup(Derived,m) = %+v, want Derived", r)
	}
	if r := snap1.LookupByName("Derived", "m"); !r.Found() || snap1.Graph().Name(r.Class()) != "Base" {
		t.Fatalf("v1 after edit lookup(Derived,m) = %+v, want Base (isolation broken)", r)
	}
}

func TestWorkspaceSnapshotIsCopyOnWrite(t *testing.T) {
	ws := incremental.New()
	c, err := ws.AddClass("C", nil)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("Snapshot of unchanged workspace rebuilt the graph")
	}
	gen := ws.Generation()
	if err := ws.AddMember(c, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	if ws.Generation() == gen {
		t.Fatal("edit did not bump the generation")
	}
	g3, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatal("Snapshot after edit returned the stale graph")
	}
	if len(g1.DeclaredMembers(c)) != 0 || len(g3.DeclaredMembers(c)) != 1 {
		t.Fatal("old snapshot mutated by edit")
	}
}

// EachTableEntry visits exactly the table's entries, in the canonical
// (topological class, member id) order.
func TestEachTableEntry(t *testing.T) {
	g := hiergen.Figure3()
	snap := NewSnapshot(g, core.WithStaticRule())
	table := snap.Table()
	n := 0
	lastTopo, lastMember := -1, -1
	snap.EachTableEntry(func(c chg.ClassID, m chg.MemberID, r core.Result) {
		n++
		if tp := g.TopoPos(c); tp != lastTopo {
			if tp < lastTopo {
				t.Fatalf("classes out of topological order at %s", g.Name(c))
			}
			lastTopo, lastMember = tp, -1
		}
		if int(m) <= lastMember {
			t.Fatalf("members out of order at %s::%s", g.Name(c), g.MemberName(m))
		}
		lastMember = int(m)
		if want := table.Lookup(c, m); !r.Equal(want) {
			t.Fatalf("entry (%s, %s) = %+v, want %+v", g.Name(c), g.MemberName(m), r, want)
		}
	})
	if n != table.Entries() {
		t.Fatalf("visited %d entries, table has %d", n, table.Entries())
	}
}

func TestSyncDetailExposesConeAndEdits(t *testing.T) {
	ws := incremental.New()
	base, err := ws.AddClass("Base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.AddMember(base, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	derived, err := ws.AddClass("Derived", []incremental.BaseDecl{{Class: base}})
	if err != nil {
		t.Fatal(err)
	}

	e := New()
	b, snap1, err := e.BindWorkspace("ide", ws)
	if err != nil {
		t.Fatal(err)
	}

	// No-op sync: same snapshot, no republish, no change record.
	res, err := b.SyncDetail()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != snap1 || res.Republished || res.Carried || res.Cone != nil || res.Edits != nil {
		t.Fatalf("no-op SyncDetail = %+v", res)
	}

	// One member edit + one class add: a carried republish whose cone
	// covers only the member edit, while Edits records both.
	if err := ws.AddMember(derived, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
		t.Fatal(err)
	}
	leaf, err := ws.AddClass("Leaf", []incremental.BaseDecl{{Class: derived}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = b.SyncDetail()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Republished || !res.Carried {
		t.Fatalf("edited SyncDetail = %+v, want carried republish", res)
	}
	if res.Snapshot.Version() != 2 {
		t.Fatalf("version = %d, want 2", res.Snapshot.Version())
	}
	if len(res.Cone) != 1 {
		t.Fatalf("cone = %+v, want one member cone", res.Cone)
	}
	mid, ok := res.Snapshot.Graph().MemberID("m")
	if !ok || res.Cone[0].Member != mid {
		t.Fatalf("cone member = %d, want id of m (%d, %v)", res.Cone[0].Member, mid, ok)
	}
	// Descendant sets are maintained live, so the cone for the edit at
	// Derived conservatively includes Leaf (added after the edit).
	if got := res.Cone[0].Classes.Elems(); len(got) != 2 || got[0] != int(derived) || got[1] != int(leaf) {
		t.Fatalf("cone classes = %v, want [Derived Leaf]", got)
	}
	if len(res.Edits) != 2 {
		t.Fatalf("edits = %+v, want member add + class add", res.Edits)
	}
	if res.Edits[0].Kind != incremental.EditAddMember || res.Edits[0].Class != derived || res.Edits[0].Member != mid {
		t.Errorf("edit 0 = %+v, want add-member Derived/m", res.Edits[0])
	}
	if res.Edits[1].Kind != incremental.EditAddClass || res.Edits[1].Class != leaf {
		t.Errorf("edit 1 = %+v, want add-class Leaf", res.Edits[1])
	}

	// The sync consumed the window: an immediate SyncDetail is a no-op.
	again, err := b.SyncDetail()
	if err != nil {
		t.Fatal(err)
	}
	if again.Republished || again.Snapshot != res.Snapshot {
		t.Fatalf("post-sync SyncDetail = %+v, want no-op", again)
	}
}

// TestSnapshotFromPartsColumns pins the image loader's column
// contract: exactly one column per served backend, dominance first,
// each of the snapshot's size. A repeated backend would be unreachable
// through LookupSem yet copied into every later image, so it is
// rejected like any other malformed column set; a well-formed set
// serves every backend straight from the given cells.
func TestSnapshotFromPartsColumns(t *testing.T) {
	g := hiergen.Figure9()
	src := NewSnapshot(g, core.WithSemantics(core.SemC3, core.SemGxx))
	src.WarmAll()
	size := g.NumClasses() * g.NumMemberNames()
	plane := make([]uint64, 3*size)
	src.CopyCells(plane, src.Pool().Image())
	domCol, c3Col, gxxCol := plane[:size], plane[size:2*size], plane[2*size:]
	dom, c3 := core.SemDominance, core.SemC3
	bad := map[string]struct {
		ids   []core.SemanticsID
		cells []uint64
	}{
		"no columns":          {nil, nil},
		"repeated backend":    {[]core.SemanticsID{dom, c3, c3}, slices.Concat(domCol, c3Col, c3Col)},
		"repeated dominance":  {[]core.SemanticsID{dom, dom}, slices.Concat(domCol, domCol)},
		"dominance not first": {[]core.SemanticsID{c3, dom}, slices.Concat(c3Col, domCol)},
		"short column":        {[]core.SemanticsID{dom, c3}, slices.Concat(domCol, c3Col[1:])},
		"unknown backend":     {[]core.SemanticsID{dom, "no-such-backend"}, slices.Concat(domCol, c3Col)},
	}
	for name, tc := range bad {
		if s, err := NewSnapshotFromParts(g, src.Pool(), tc.ids, tc.cells, false, false); err == nil {
			t.Errorf("%s: accepted, serving %v", name, s.Semantics())
		}
	}

	got, err := NewSnapshotFromParts(g, src.Pool(), src.Semantics(), slices.Concat(domCol, c3Col, gxxCol), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Semantics(), src.Semantics()) {
		t.Fatalf("Semantics() = %v, want %v", got.Semantics(), src.Semantics())
	}
	for _, id := range got.Semantics() {
		if n, want := got.SemCachedEntries(id), len(domCol); n != want {
			t.Fatalf("%s column holds %d cells, want the %d it was given", id, n, want)
		}
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				r, _ := got.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				want, _ := src.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				if !r.Equal(want) {
					t.Fatalf("%s %s::%s = %s, want %s", id, g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)), r.Format(g), want.Format(g))
				}
			}
		}
	}
}

// TestColumnsAreMemberMajor pins the cell layout without timing:
// resolving one member name at every class of a cold snapshot must
// fill exactly that member's contiguous run of NumClasses words in
// every backend's column of the cell plane, and nothing outside it.
// Fills, devirt's cone walks and carry's cone clear stay inside one
// member's run only because of this contiguity.
func TestColumnsAreMemberMajor(t *testing.T) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 40, MaxBases: 3, VirtualProb: 0.35,
		MemberNames: 5, MemberProb: 0.2, Seed: 11,
	})
	n := g.NumClasses()
	size := n * g.NumMemberNames()
	for m := 0; m < g.NumMemberNames(); m++ {
		snap := NewSnapshot(g, core.WithSemantics(core.SemC3))
		for _, id := range snap.Semantics() {
			for c := 0; c < n; c++ {
				snap.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
			}
		}
		ids := snap.Semantics()
		if len(ids) != 2 {
			t.Fatalf("snapshot serves %d columns, want dominance and c3", len(ids))
		}
		plane := make([]uint64, len(ids)*size)
		snap.CopyCells(plane, snap.Pool().Image())
		for k, id := range ids {
			for i, w := range plane[k*size : (k+1)*size] {
				if inRun := i/n == m; inRun != (w != 0) {
					t.Fatalf("member %d, %s column: word %d = %#x, want nonzero exactly in [%d, %d)",
						m, id, i, w, m*n, (m+1)*n)
				}
			}
		}
	}
}

// TestCopyCellsSkipsUncoveredPayloads pins the rule an image writer
// relies on when it images the pool before copying the cells: a cell
// whose payload was interned after the pool image was taken is copied
// as unfilled, and a snapshot assembled from that plane over that pool
// image (what a loader builds) refills the cell to the same answer.
func TestCopyCellsSkipsUncoveredPayloads(t *testing.T) {
	g := hiergen.Figure1()
	src := NewSnapshot(g)
	cut := src.Pool().Image()
	e, m := chg.ClassID(4), chg.MemberID(0) // E::m, blue {Ω}
	want := src.Lookup(e, m)
	if !want.Ambiguous() || src.Pool().Len() == 0 {
		t.Fatalf("E::m = %s over %d payloads, want a pooled blue cell", want.Format(g), src.Pool().Len())
	}
	// Figure 1 has one member name, so the plane is m's run.
	plane := make([]uint64, g.NumClasses())
	src.CopyCells(plane, cut)
	if plane[e] != 0 {
		t.Fatalf("E::m's word copied as %#x over a pool image without its payload, want 0", plane[e])
	}
	for c := range plane {
		if r := src.Lookup(chg.ClassID(c), m); chg.ClassID(c) != e && plane[c] != uint64(r.Cell()) {
			t.Fatalf("%s::m copied as %#x, want its inline word %#x", g.Name(chg.ClassID(c)), plane[c], uint64(r.Cell()))
		}
	}

	pool, err := core.PoolFromImage(cut, g.NumClasses())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewSnapshotFromParts(g, pool, src.Semantics(), plane, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Lookup(e, m); !got.Equal(want) {
		t.Fatalf("loaded E::m = %s, want %s", got.Format(g), want.Format(g))
	}

	src.CopyCells(plane, src.Pool().Image())
	if plane[e] != uint64(want.Cell()) {
		t.Fatalf("E::m copied as %#x over the current pool image, want %#x", plane[e], uint64(want.Cell()))
	}
}
