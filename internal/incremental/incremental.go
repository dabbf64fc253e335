// Package incremental holds a class hierarchy that changes between
// queries — the declarations a compiler driver or IDE adds and removes
// — together with the dependency structure that says which lookup
// results each edit can change. It answers no lookups itself:
// engine.BindWorkspace freezes the workspace into snapshots and serves
// every lookup through the one Figure 8 kernel, carrying each cached
// result an edit cannot have changed warm into the next snapshot.
//
// The dependency structure is the same observation that makes Figure 8
// a single topological pass: lookup[C, m] depends only on the
// declarations of the *same* member name m in C and C's ancestors.
// Hence:
//
//   - adding a class (C++ classes are closed at definition, so edges
//     never appear later) invalidates nothing;
//   - adding or removing a declaration of m in class X invalidates
//     exactly the entries (D, m) with D = X or D a descendant of X.
//
// The workspace keeps each class's direct-derived list and logs every
// edit; InvalidationConeSince replays the log into the exact
// per-member cones between two generations — one multi-source walk
// down the derived lists per edited member name — which is what the
// engine's warm carry clears.
//
// A Workspace is single-writer; Snapshot freezes the current hierarchy
// into an immutable chg.Graph with class and member ids stable across
// freezes, so the engine can copy cached cells between successive
// snapshots by (class, member) index.
package incremental

import (
	"fmt"
	"sort"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// BaseDecl names one direct base in an AddClass call.
type BaseDecl struct {
	Class   chg.ClassID
	Virtual bool
}

// Edit-log sizing: the log lets a publisher (engine.WorkspaceBinding)
// ask for the exact invalidation cone between two generations. It is
// bounded; when trimmed past a publisher's last generation the
// publisher falls back to a cold republish.
const maxEditLog = 8192

// EditKind discriminates the logged hierarchy edits. Consumers that
// maintain derived state per edit kind (e.g. a lint session deciding
// which rule footprints to re-run) read these off EditsSince.
type EditKind uint8

const (
	// EditAddClass defines a new class. It invalidates no lookup entry
	// (classes are closed at definition), but it does extend the
	// hierarchy's structure: the cones of its ancestors grow, and new
	// (class, member) entries come into existence.
	EditAddClass EditKind = iota
	// EditAddMember declares a member; entries (D, m) with
	// D ∈ {c} ∪ descendants(c) are stale.
	EditAddMember
	// EditRemoveMember removes a declaration; same cone as EditAddMember.
	EditRemoveMember
)

func (k EditKind) String() string {
	switch k {
	case EditAddClass:
		return "add-class"
	case EditAddMember:
		return "add-member"
	case EditRemoveMember:
		return "remove-member"
	}
	return fmt.Sprintf("EditKind(%d)", uint8(k))
}

// Edit is one logged hierarchy edit: after generation gen the edit is
// visible. Member is meaningful only for the member edit kinds.
type Edit struct {
	gen    uint64
	Kind   EditKind
	Class  chg.ClassID
	Member chg.MemberID
}

// MemberCone is one member name's invalidation cone: the classes
// whose (class, Member) entries an edit window made stale. The set is
// owned by the caller; its universe is NumClasses at the time of the
// call.
type MemberCone struct {
	Member  chg.MemberID
	Classes *bitset.Set
}

// Workspace is a mutable hierarchy with a bounded edit log.
type Workspace struct {
	names   []string
	byName  map[string]chg.ClassID
	bases   [][]chg.Edge
	derived [][]chg.ClassID
	members []map[chg.MemberID]chg.Member

	memberNames []string
	memberIDs   map[string]chg.MemberID

	// bfsQueue is coneFrom's queue, reused across calls.
	bfsQueue []chg.ClassID

	// editLog records hierarchy edits so a publisher can compute the
	// exact cone (and consumers the edit kinds) between two
	// generations; logFloor is the highest generation whose edits may
	// have been trimmed away.
	editLog  []Edit
	logFloor uint64

	// gen counts hierarchy edits; frozen caches the graph built by the
	// last Snapshot call, reusable until the next edit. The pair gives
	// Snapshot copy-on-write behaviour: repeated snapshots of an
	// unchanged workspace return the same immutable graph, and an edit
	// merely invalidates the cache — it never touches a graph already
	// handed out, so readers of earlier snapshots are unaffected.
	gen       uint64
	frozen    *chg.Graph
	frozenGen uint64
}

// New returns an empty workspace.
func New() *Workspace {
	return &Workspace{
		byName:    make(map[string]chg.ClassID),
		memberIDs: make(map[string]chg.MemberID),
	}
}

// NumClasses returns the number of classes defined so far.
func (w *Workspace) NumClasses() int { return len(w.names) }

// Generation counts the edits applied so far (class additions, member
// additions and removals). Publishers — e.g. an engine workspace
// binding — compare generations to decide whether a new snapshot
// version is needed.
func (w *Workspace) Generation() uint64 { return w.gen }

// ID returns the class named name.
func (w *Workspace) ID(name string) (chg.ClassID, bool) {
	id, ok := w.byName[name]
	return id, ok
}

// AddClass defines a new class with the given (already defined)
// direct bases. Like C++, a class's base clause is fixed at
// definition time, so no existing lookup result can change: nothing
// is invalidated. The class joins each direct base's derived list,
// which is all later cone walks read.
func (w *Workspace) AddClass(name string, bases []BaseDecl) (chg.ClassID, error) {
	if name == "" {
		return 0, fmt.Errorf("incremental: empty class name")
	}
	if _, dup := w.byName[name]; dup {
		return 0, fmt.Errorf("incremental: class %s already defined", name)
	}
	seen := map[chg.ClassID]bool{}
	for _, b := range bases {
		if int(b.Class) < 0 || int(b.Class) >= len(w.names) {
			return 0, fmt.Errorf("incremental: base %d of %s is not defined", b.Class, name)
		}
		if seen[b.Class] {
			return 0, fmt.Errorf("incremental: class %s repeats direct base %s", name, w.names[b.Class])
		}
		seen[b.Class] = true
	}
	id := chg.ClassID(len(w.names))
	w.names = append(w.names, name)
	w.byName[name] = id
	edges := make([]chg.Edge, 0, len(bases))
	for _, b := range bases {
		kind := chg.NonVirtual
		if b.Virtual {
			kind = chg.Virtual
		}
		edges = append(edges, chg.Edge{Base: b.Class, Kind: kind})
		w.derived[b.Class] = append(w.derived[b.Class], id)
	}
	w.bases = append(w.bases, edges)
	w.derived = append(w.derived, nil)
	w.members = append(w.members, map[chg.MemberID]chg.Member{})
	w.logEdit(EditAddClass, id, 0)
	return id, nil
}

// coneFrom unions {seeds} ∪ descendants(seeds) into out: a
// multi-source walk down the derived lists, with out doubling as the
// visited set, so each class is queued once however many seeds reach
// it. The queue is reused across calls.
func (w *Workspace) coneFrom(out *bitset.Set, seeds ...chg.ClassID) {
	q := w.bfsQueue[:0]
	for _, s := range seeds {
		if !out.Has(int(s)) {
			out.Add(int(s))
			q = append(q, s)
		}
	}
	for len(q) > 0 {
		c := q[len(q)-1]
		q = q[:len(q)-1]
		for _, d := range w.derived[c] {
			if !out.Has(int(d)) {
				out.Add(int(d))
				q = append(q, d)
			}
		}
	}
	w.bfsQueue = q[:0]
}

// AddMember declares member m directly in class c.
func (w *Workspace) AddMember(c chg.ClassID, m chg.Member) error {
	if err := w.checkClass(c); err != nil {
		return err
	}
	if m.Name == "" {
		return fmt.Errorf("incremental: empty member name")
	}
	id := w.internMember(m.Name)
	if _, dup := w.members[c][id]; dup {
		return fmt.Errorf("incremental: %s::%s already declared", w.names[c], m.Name)
	}
	w.members[c][id] = m
	w.logEdit(EditAddMember, c, id)
	return nil
}

// RemoveMember deletes the direct declaration of name in c.
func (w *Workspace) RemoveMember(c chg.ClassID, name string) error {
	if err := w.checkClass(c); err != nil {
		return err
	}
	id, ok := w.memberIDs[name]
	if !ok {
		return fmt.Errorf("incremental: unknown member name %s", name)
	}
	if _, declared := w.members[c][id]; !declared {
		return fmt.Errorf("incremental: %s does not declare %s", w.names[c], name)
	}
	delete(w.members[c], id)
	w.logEdit(EditRemoveMember, c, id)
	return nil
}

// logEdit records an applied edit as the next generation, bounds the
// log, and drops the cached freeze.
func (w *Workspace) logEdit(kind EditKind, c chg.ClassID, m chg.MemberID) {
	w.gen++
	w.frozen = nil
	w.editLog = append(w.editLog, Edit{gen: w.gen, Kind: kind, Class: c, Member: m})
	if len(w.editLog) > maxEditLog {
		drop := len(w.editLog) / 2
		w.logFloor = w.editLog[drop-1].gen
		w.editLog = append(w.editLog[:0:0], w.editLog[drop:]...)
	}
}

// InvalidationConeSince returns, per member name edited after
// generation since, the union of the edit cones: the classes whose
// (class, member) entries may have changed. Cones are walked at call
// time, so they can only over-approximate (classes added
// after an edit appear; they never had valid old entries, so clearing
// them is harmless). ok is false when the edit log no longer covers
// the window (or since is in the future) — the caller must then treat
// everything as invalid. Class-only edits (AddClass) invalidate
// nothing and produce an empty cone list with ok true.
func (w *Workspace) InvalidationConeSince(since uint64) ([]MemberCone, bool) {
	if since > w.gen || since < w.logFloor {
		return nil, false
	}
	// Group the window's edits by member first, so each member's cone
	// is one multi-source walk instead of a walk per edit: a bulk edit
	// batch touching one member k times costs one pass, not k.
	seedsByMember := make(map[chg.MemberID][]chg.ClassID)
	for i := len(w.editLog) - 1; i >= 0 && w.editLog[i].gen > since; i-- {
		e := w.editLog[i]
		if e.Kind == EditAddClass {
			continue // defines entries, invalidates none
		}
		seedsByMember[e.Member] = append(seedsByMember[e.Member], e.Class)
	}
	out := make([]MemberCone, 0, len(seedsByMember))
	for m, seeds := range seedsByMember {
		s := bitset.New(len(w.names))
		w.coneFrom(s, seeds...)
		out = append(out, MemberCone{Member: m, Classes: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out, true
}

// EditsSince returns every edit applied after generation since, oldest
// first, with its kind — the per-edit record incremental consumers
// (e.g. a lint session mapping edits onto rule footprints) combine
// with InvalidationConeSince's member cones. ok is false when the
// bounded edit log no longer covers the window (or since is in the
// future); the caller must then treat the whole hierarchy as changed.
// The returned slice is freshly allocated.
func (w *Workspace) EditsSince(since uint64) ([]Edit, bool) {
	if since > w.gen || since < w.logFloor {
		return nil, false
	}
	i := sort.Search(len(w.editLog), func(k int) bool { return w.editLog[k].gen > since })
	return append([]Edit(nil), w.editLog[i:]...), true
}

// DeclaresName reports whether class c currently declares a member
// named name directly — the presence test edit drivers (toggling
// scripts, replay tools) use to decide between AddMember and
// RemoveMember.
func (w *Workspace) DeclaresName(c chg.ClassID, name string) bool {
	if err := w.checkClass(c); err != nil {
		return false
	}
	id, ok := w.memberIDs[name]
	if !ok {
		return false
	}
	_, declared := w.members[c][id]
	return declared
}

func (w *Workspace) checkClass(c chg.ClassID) error {
	if int(c) < 0 || int(c) >= len(w.names) {
		return fmt.Errorf("incremental: invalid class id %d", c)
	}
	return nil
}

func (w *Workspace) internMember(name string) chg.MemberID {
	if id, ok := w.memberIDs[name]; ok {
		return id
	}
	id := chg.MemberID(len(w.memberNames))
	w.memberNames = append(w.memberNames, name)
	w.memberIDs[name] = id
	return id
}

// Snapshot freezes the current hierarchy into an immutable chg.Graph.
// Class ids match the workspace's (classes are appended in definition
// order on both sides) and member ids match too: every member name is
// pre-interned into the builder in workspace id order, so successive
// freezes of an evolving workspace agree on every id they share.
// That stability is the foundation of the engine's warm-cache
// carry-over, which copies packed cells between snapshots by
// (class, member) index.
//
// The frozen graph is cached copy-on-write: while no edit intervenes,
// repeated calls return the same graph, and an edit only drops the
// cache — graphs already returned stay valid for their readers.
func (w *Workspace) Snapshot() (*chg.Graph, error) {
	if w.frozen != nil && w.frozenGen == w.gen {
		return w.frozen, nil
	}
	b := chg.NewBuilder()
	for i, name := range w.memberNames {
		if id := b.MemberName(name); id != chg.MemberID(i) {
			return nil, fmt.Errorf("incremental: snapshot member id drift")
		}
	}
	for i, name := range w.names {
		id := b.Class(name)
		if id != chg.ClassID(i) {
			return nil, fmt.Errorf("incremental: snapshot id drift")
		}
	}
	var mids []chg.MemberID
	for i := range w.names {
		for _, e := range w.bases[i] {
			b.Base(chg.ClassID(i), e.Base, e.Kind)
		}
		mids = mids[:0]
		for mid := range w.members[i] {
			mids = append(mids, mid)
		}
		sort.Slice(mids, func(x, y int) bool { return mids[x] < mids[y] })
		for _, mid := range mids {
			b.Member(chg.ClassID(i), w.members[i][mid])
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	w.frozen, w.frozenGen = g, w.gen
	return g, nil
}
