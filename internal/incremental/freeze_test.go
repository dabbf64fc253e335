package incremental_test

// A workspace's hierarchy is one chg.Builder, built again at every
// freeze, and successive freezes share every class an edit left alone.
// These tests pin that sharing: each freeze equals a cold build of the
// same hierarchy, no later edit changes a freeze or the graph the
// workspace was lifted from, readers of old freezes race with nothing,
// and a freeze costs no per-class allocation.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// record is the test's own account of a workspace's hierarchy, kept
// edit by edit: class names, base clauses, declarations in declaration
// order with the ids their names were interned at, and member names in
// interning order.
type record struct {
	names       []string
	bases       [][]chg.Edge
	decls       [][]chg.Decl
	memberNames []string
}

func recordOf(g *chg.Graph) *record {
	r := &record{memberNames: slices.Clone(g.MemberNames())}
	for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
		r.names = append(r.names, g.Name(c))
		r.bases = append(r.bases, slices.Clone(g.DirectBases(c)))
		r.decls = append(r.decls, slices.Clone(g.DeclaredMembers(c)))
	}
	return r
}

// coldBuild replays r through a fresh chg.NewBuilder: member names in
// id order, then classes, then each class's bases and declarations in
// id order. The cold build must give every declaration the id r holds.
func (r *record) coldBuild(t *testing.T) *chg.Graph {
	t.Helper()
	b := chg.NewBuilder()
	for _, name := range r.memberNames {
		b.MemberName(name)
	}
	for _, name := range r.names {
		b.Class(name)
	}
	for c := range r.names {
		for _, e := range r.bases[c] {
			b.Base(chg.ClassID(c), e.Base, e.Kind)
		}
		for _, d := range r.decls[c] {
			b.Member(chg.ClassID(c), d.Member)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range r.decls {
		if got := g.DeclaredMembers(chg.ClassID(c)); !slices.Equal(got, want) {
			t.Fatalf("cold build: DeclaredMembers(%s) = %v, want %v", r.names[c], got, want)
		}
	}
	return g
}

// sameGraph fails unless got reads like want through every accessor,
// including on the probe names, which may or may not name a class or
// a member in want.
func sameGraph(t *testing.T, label string, got, want *chg.Graph, probe ...string) {
	t.Helper()
	for _, name := range probe {
		id, ok := got.ID(name)
		wid, wok := want.ID(name)
		mid, mok := got.MemberID(name)
		wmid, wmok := want.MemberID(name)
		if id != wid || ok != wok || mid != wmid || mok != wmok {
			t.Fatalf("%s: ID(%s) = %d, %v and MemberID = %d, %v; want %d, %v and %d, %v",
				label, name, id, ok, mid, mok, wid, wok, wmid, wmok)
		}
	}
	if got.NumClasses() != want.NumClasses() || got.NumEdges() != want.NumEdges() ||
		got.NumVirtualEdges() != want.NumVirtualEdges() {
		t.Fatalf("%s: %d classes, %d edges, %d virtual; want %d, %d, %d", label,
			got.NumClasses(), got.NumEdges(), got.NumVirtualEdges(),
			want.NumClasses(), want.NumEdges(), want.NumVirtualEdges())
	}
	if !slices.Equal(got.MemberNames(), want.MemberNames()) {
		t.Fatalf("%s: member names %v, want %v", label, got.MemberNames(), want.MemberNames())
	}
	for m, name := range want.MemberNames() {
		if id, ok := got.MemberID(name); !ok || id != chg.MemberID(m) {
			t.Fatalf("%s: MemberID(%s) = %d, %v; want %d", label, name, id, ok, m)
		}
	}
	if !slices.Equal(got.Topo(), want.Topo()) {
		t.Fatalf("%s: Topo differs", label)
	}
	for c := chg.ClassID(0); int(c) < want.NumClasses(); c++ {
		name := want.Name(c)
		if id, ok := got.ID(name); got.Name(c) != name || !ok || id != c {
			t.Fatalf("%s: class %d is %s (ID %d, %v), want %s", label, c, got.Name(c), id, ok, name)
		}
		if got.TopoPos(c) != want.TopoPos(c) {
			t.Fatalf("%s: TopoPos(%s) = %d, want %d", label, name, got.TopoPos(c), want.TopoPos(c))
		}
		if !slices.Equal(got.DirectBases(c), want.DirectBases(c)) {
			t.Fatalf("%s: DirectBases(%s) = %v, want %v", label, name, got.DirectBases(c), want.DirectBases(c))
		}
		if !slices.Equal(got.DirectDerived(c), want.DirectDerived(c)) {
			t.Fatalf("%s: DirectDerived(%s) = %v, want %v", label, name, got.DirectDerived(c), want.DirectDerived(c))
		}
		if !slices.Equal(got.DeclaredMembers(c), want.DeclaredMembers(c)) {
			t.Fatalf("%s: DeclaredMembers(%s) = %v, want %v", label, name, got.DeclaredMembers(c), want.DeclaredMembers(c))
		}
		if !slices.Equal(got.VirtualBases(c), want.VirtualBases(c)) {
			t.Fatalf("%s: VirtualBases(%s) = %v, want %v", label, name, got.VirtualBases(c), want.VirtualBases(c))
		}
		for m := chg.MemberID(0); int(m) < want.NumMemberNames(); m++ {
			if got.Declares(c, m) != want.Declares(c, m) {
				t.Fatalf("%s: Declares(%s, %s) = %v", label, name, want.MemberName(m), got.Declares(c, m))
			}
		}
	}
}

// editStep applies one random edit to w and to its record r: a class
// with one to three bases (half of them picked from the source graph's
// classes, which both workspaces share), or a declaration added or
// removed. New class and member names carry tag, so two workspaces
// intern different names at the same ids.
func editStep(t *testing.T, rng *rand.Rand, w *incremental.Workspace, r *record, srcClasses int, tag string) {
	t.Helper()
	n := len(r.names)
	switch c := chg.ClassID(rng.Intn(n)); {
	case rng.Intn(3) == 0:
		var bases []incremental.BaseDecl
		var edges []chg.Edge
		for k := 1 + rng.Intn(3); k > 0; k-- {
			pool := n
			if rng.Intn(2) == 0 {
				pool = srcClasses
			}
			base := chg.ClassID(rng.Intn(pool))
			if slices.ContainsFunc(edges, func(e chg.Edge) bool { return e.Base == base }) {
				continue
			}
			kind := chg.NonVirtual
			if rng.Intn(3) == 0 {
				kind = chg.Virtual
			}
			bases = append(bases, incremental.BaseDecl{Class: base, Virtual: kind == chg.Virtual})
			edges = append(edges, chg.Edge{Base: base, Kind: kind})
		}
		name := fmt.Sprintf("%s_K%d", tag, n)
		if _, err := w.AddClass(name, bases); err != nil {
			t.Fatal(err)
		}
		r.names = append(r.names, name)
		r.bases = append(r.bases, edges)
		r.decls = append(r.decls, nil)
	case len(r.decls[c]) > 0 && rng.Intn(2) == 0:
		i := rng.Intn(len(r.decls[c]))
		if err := w.RemoveMember(c, r.decls[c][i].Name); err != nil {
			t.Fatal(err)
		}
		r.decls[c] = slices.Delete(r.decls[c], i, i+1)
	default:
		name := r.memberNames[rng.Intn(len(r.memberNames))]
		if rng.Intn(6) == 0 {
			name = fmt.Sprintf("%s_n%d", tag, len(r.memberNames))
		}
		if w.DeclaresName(c, name) {
			return
		}
		m := chg.Member{Name: name, Kind: chg.MemberKind(rng.Intn(2)), Static: rng.Intn(4) == 0}
		if err := w.AddMember(c, m); err != nil {
			t.Fatal(err)
		}
		id := slices.Index(r.memberNames, name)
		if id < 0 {
			id = len(r.memberNames)
			r.memberNames = append(r.memberNames, name)
		}
		r.decls[c] = append(r.decls[c], chg.Decl{Member: m, ID: chg.MemberID(id)})
	}
}

// Two workspaces lifted from one Giant take interleaved random edits,
// with a freeze every few steps. Every freeze must read like a cold
// build of the same hierarchy, and at the end every earlier freeze and
// the source graph must still read as they did: a builder that changed
// declarations a graph holds, or appended in place to an array another
// builder extends, fails here.
func TestFreezesMatchColdBuilds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := hiergen.GiantDefaults(160)
		cfg.MemberNames = 24
		cfg.Seed = seed
		src := hiergen.Giant(cfg)
		srcWant := recordOf(src).coldBuild(t)
		sameGraph(t, "source", src, srcWant)

		rng := rand.New(rand.NewSource(seed))
		var ws [2]*incremental.Workspace
		var recs [2]*record
		for i := range ws {
			w, err := incremental.FromGraph(src)
			if err != nil {
				t.Fatal(err)
			}
			ws[i], recs[i] = w, recordOf(src)
		}
		type freeze struct {
			label     string
			got, want *chg.Graph
		}
		var freezes []freeze
		for step := 0; step < 300; step++ {
			i := rng.Intn(2)
			editStep(t, rng, ws[i], recs[i], src.NumClasses(), fmt.Sprintf("w%d", i))
			if rng.Intn(4) != 0 {
				continue
			}
			g, err := ws[i].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			f := freeze{fmt.Sprintf("seed %d, workspace %d, step %d", seed, i, step), g, recs[i].coldBuild(t)}
			sameGraph(t, f.label, f.got, f.want)
			freezes = append(freezes, f)
		}
		// Every name either workspace defined, probed in every graph.
		var names []string
		for _, r := range recs {
			names = append(append(names, r.names[src.NumClasses():]...), r.memberNames[src.NumMemberNames():]...)
		}
		for _, f := range freezes {
			sameGraph(t, f.label+", read at the end", f.got, f.want, names...)
		}
		sameGraph(t, fmt.Sprintf("seed %d: source, read at the end", seed), src, srcWant, names...)
	}
}

// Readers walk, probe and look up through earlier freezes and their
// engine snapshots while the writer edits, freezes and syncs. Run
// under -race; each reader also checks that a freeze's declarations
// still add up to what they did when it was published.
func TestFreezeReadersDuringEdits(t *testing.T) {
	cfg := hiergen.GiantDefaults(300)
	cfg.MemberNames = 32
	src := hiergen.Giant(cfg)
	w, err := incremental.FromGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	b := bind(t, w)
	rec := recordOf(src)

	type published struct {
		g     *chg.Graph
		sum   int
		query func(c chg.ClassID, m chg.MemberID)
	}
	declSum := func(g *chg.Graph) int {
		sum := 0
		for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
			sum += len(g.DeclaredMembers(c))
		}
		return sum
	}
	publish := func() published {
		snap := sync(t, b)
		g := snap.Graph()
		return published{g, declSum(g), func(c chg.ClassID, m chg.MemberID) { _ = snap.Lookup(c, m).Def() }}
	}

	var pubs atomic.Pointer[[]published]
	first := []published{publish()}
	pubs.Store(&first)
	stop := make(chan struct{})
	const readers = 2
	done := make(chan struct{}, readers)
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			visited := new(bitset.Set)
			var queue []chg.ClassID
			for {
				select {
				case <-stop:
					return
				default:
				}
				ps := *pubs.Load()
				p := ps[rng.Intn(len(ps))]
				g := p.g
				c := chg.ClassID(rng.Intn(g.NumClasses()))
				m := chg.MemberID(rng.Intn(g.NumMemberNames()))
				queue = g.EachDescendant(c, visited, queue, func(d chg.ClassID) { _ = g.Declares(d, m) })
				if id, ok := g.ID(g.Name(c)); !ok || id != c {
					errs <- fmt.Sprintf("ID(%s) = %d, %v", g.Name(c), id, ok)
					return
				}
				_ = g.VisibleMembers(c)
				p.query(c, m)
				if sum := declSum(g); sum != p.sum {
					errs <- fmt.Sprintf("a published freeze's declarations changed: %d, want %d", sum, p.sum)
					return
				}
			}
		}(int64(100 + r))
	}

	func() {
		// Stop the readers however the writer ends, t.Fatal included.
		defer func() {
			close(stop)
			for r := 0; r < readers; r++ {
				<-done
			}
		}()
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 200; step++ {
			editStep(t, rng, w, rec, src.NumClasses(), "w")
			if step%4 == 3 {
				next := append(*pubs.Load(), publish())
				pubs.Store(&next)
			}
		}
	}()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFreezeAllocationBounded gates, by runtime counts rather than
// time, what one edit-and-freeze round costs on a workspace lifted
// from a 16,000-class Giant: a declaration toggle and a class add,
// then the freeze. The builder copies the class headers at the first
// edit after a freeze (O(|N|) words in one allocation), clones the
// class-name map when a class is added and reruns the topological
// sort, and copies nothing per class. Replaying every class through a
// fresh builder, as freezes once did, allocated 14.8 MB in 95,051
// objects for the freeze alone.
func TestFreezeAllocationBounded(t *testing.T) {
	w, err := incremental.FromGraph(hiergen.Giant(hiergen.GiantDefaults(16000)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c := chg.ClassID(100)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if w.DeclaresName(c, "m3") {
		err = w.RemoveMember(c, "m3")
	} else {
		err = w.AddMember(c, chg.Member{Name: "m3"})
	}
	if err == nil {
		_, err = w.AddClass("Added", []incremental.BaseDecl{{Class: 5}})
	}
	if err == nil {
		_, err = w.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("toggle, class add and freeze allocated %d bytes in %d objects", bytes, objects)
	if bytes >= 4<<20 || objects >= 1000 {
		t.Errorf("toggle, class add and freeze allocated %d bytes in %d objects, want under %d bytes in under 1000",
			bytes, objects, 4<<20)
	}
}
