package lint

import (
	"slices"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
	"cpplookup/internal/mro"
)

// Session is the incremental lint engine: it holds per-rule diagnostic
// state keyed by the rule's footprint axis (member column, class row,
// or structural task class) and, on each Sync, re-evaluates only the
// tasks the edits since the last Sync can have changed — the same
// invalidation cone the snapshot cache carries warm cells across
// (PR5), consumed one level up.
//
// The dirty sets per footprint, for a window of edits with member
// cones cone(m) = edited classes ∪ their descendants and added classes
// A (classes are closed at definition — an add invalidates no existing
// lookup cell, but creates new rows and can extend member columns):
//
//   - FootprintMember: the edited member names, plus every member name
//     visible in a class of A (its column gains rows there, and rules
//     like dead-member read whole columns).
//   - FootprintClass: every class in any cone(m) (its row changed),
//     plus A.
//   - FootprintHierarchy: A ∪ ancestors(A) — structure below a class
//     never changes after definition, so only a new class (a join
//     point, a redundant edge, a failed merge) or the ancestors it
//     gives new descendants to can yield different findings.
//
// Replacing exactly those buckets and re-sorting reproduces, by
// construction, what a full Run over the new snapshot would compute —
// the differential tests pin this cell-for-cell across semantics
// backends.
//
// A Session is single-consumer, like the workspace it watches: edit,
// then Sync, from one goroutine. The rule evaluation inside a Sync is
// parallel (Options.Workers, as Run).
type Session struct {
	binding *engine.WorkspaceBinding
	opts    Options
	enabled map[string]bool

	snap *engine.Snapshot

	// Diagnostic state, one bucket per task: member rules by member
	// column, row rules (gxx-divergence) by class row, structural
	// rules by task class.
	memberDiags [][]diag.Diagnostic
	rowDiags    [][]diag.Diagnostic
	structDiags [][]diag.Diagnostic

	cur   []diag.Diagnostic
	delta diag.Delta
	stats SessionStats
}

// SessionStats counts the work a session has done — the observable
// difference between cone-scoped and full re-analysis.
type SessionStats struct {
	// Syncs counts Sync calls; Republishes how many of them saw edits.
	Syncs       int
	Republishes int
	// FullRelints counts full re-analyses: the initial one, plus any
	// sync whose edit window outran the workspace's edit log.
	FullRelints int
	// MemberTasks, RowTasks, and StructuralTasks count bucket
	// re-evaluations by footprint, full relints included.
	MemberTasks     int
	RowTasks        int
	StructuralTasks int
}

// NewSession builds a session over the binding, publishes any pending
// edits, and runs the initial full analysis. The initial Delta reports
// every current finding as added.
func NewSession(b *engine.WorkspaceBinding, opts Options) (*Session, error) {
	enabled, err := ruleSet(opts.Rules)
	if err != nil {
		return nil, err
	}
	gateSemantics(enabled, opts.Semantics)
	s := &Session{binding: b, opts: opts, enabled: enabled}
	res, err := b.SyncDetail()
	if err != nil {
		return nil, err
	}
	s.snap = res.Snapshot
	s.fullRelint()
	s.finish()
	return s, nil
}

// Sync publishes the workspace's pending edits and re-evaluates the
// affected buckets, returning the delta against the previous state.
// With no pending edits the delta is empty (everything persisting).
func (s *Session) Sync() (diag.Delta, error) {
	res, err := s.binding.SyncDetail()
	if err != nil {
		return diag.Delta{}, err
	}
	s.stats.Syncs++
	if !res.Republished {
		s.delta = diag.Delta{Persisting: s.cur}
		return s.delta, nil
	}
	s.stats.Republishes++
	s.snap = res.Snapshot
	if res.Carried {
		s.incrementalRelint(res)
	} else {
		// The edit log no longer covers the window: the cone is
		// unknown, so everything is dirty.
		s.fullRelint()
	}
	s.finish()
	return s.delta, nil
}

// Delta returns the delta computed by the last Sync (or construction).
func (s *Session) Delta() diag.Delta { return s.delta }

// Diagnostics returns the current findings in canonical order. The
// slice is the session's state: read-only, valid until the next Sync.
func (s *Session) Diagnostics() []diag.Diagnostic { return s.cur }

// Snapshot returns the engine snapshot the current findings describe.
func (s *Session) Snapshot() *engine.Snapshot { return s.snap }

// Stats returns cumulative work counters.
func (s *Session) Stats() SessionStats { return s.stats }

// bindRunner binds the rule implementations to the current snapshot:
// lookups go through the snapshot's lazy warm-carried cache (cells
// identical to an eager table build, pinned by the engine tests), and
// member universes are recomputed per class on demand. The C3
// linearization is structural, but cheap enough to rebuild per
// republish relative to the rule work it feeds.
func (s *Session) bindRunner() *runner {
	g, snap := s.snap.Graph(), s.snap
	members := func(c chg.ClassID) []chg.MemberID { return visibleMembers(g, c) }
	return newRunner(g, snap.Lookup, members, s.opts, s.enabled, func(b *mro.Backend) lookupFunc {
		if slices.Contains(snap.Semantics(), core.SemC3) {
			// The snapshot serves C3: its warm-carried column is
			// exactly the incremental cache we want.
			return func(c chg.ClassID, m chg.MemberID) core.Result {
				res, _ := snap.LookupSem(core.SemC3, c, m)
				return res
			}
		}
		// Local fallback: resolve off the linearization per cell
		// (Backend methods are concurrency-safe).
		return func(c chg.ClassID, m chg.MemberID) core.Result {
			return b.Resolve(c, m, nil)
		}
	})
}

func (s *Session) anyMemberRule() bool {
	for _, r := range Rules {
		if r.Footprint == FootprintMember && s.enabled[r.ID] {
			return true
		}
	}
	return false
}

func (s *Session) anyStructuralRule() bool {
	for _, r := range Rules {
		if r.Footprint == FootprintHierarchy && s.enabled[r.ID] {
			return true
		}
	}
	return false
}

// fullRelint re-evaluates every bucket — construction, and the
// fallback when the cone is unanswerable.
func (s *Session) fullRelint() {
	r := s.bindRunner()
	g := s.snap.Graph()
	s.stats.FullRelints++

	classes := upTo[chg.ClassID](g.NumClasses())
	s.memberDiags = make([][]diag.Diagnostic, g.NumMemberNames())
	if s.anyMemberRule() {
		s.stats.MemberTasks += len(s.memberDiags)
		s.memberDiags = r.checkMembers(upTo[chg.MemberID](g.NumMemberNames()))
	}
	s.rowDiags = make([][]diag.Diagnostic, g.NumClasses())
	if s.enabled[GxxDivergence] {
		s.stats.RowTasks += len(s.rowDiags)
		s.rowDiags = r.checkRows(classes)
	}
	s.structDiags = make([][]diag.Diagnostic, g.NumClasses())
	if s.anyStructuralRule() {
		s.stats.StructuralTasks += len(s.structDiags)
		s.structDiags = r.checkStructure(classes)
	}
}

// incrementalRelint re-evaluates only the buckets the sync's edit
// window can have changed.
func (s *Session) incrementalRelint(res engine.SyncResult) {
	r := s.bindRunner()
	g := s.snap.Graph()

	// Grow the buckets to the new universe; existing buckets keep
	// their findings unless dirtied below.
	for len(s.memberDiags) < g.NumMemberNames() {
		s.memberDiags = append(s.memberDiags, nil)
	}
	for len(s.rowDiags) < g.NumClasses() {
		s.rowDiags = append(s.rowDiags, nil)
		s.structDiags = append(s.structDiags, nil)
	}

	var added []chg.ClassID
	for _, e := range res.Edits {
		if e.Kind == incremental.EditAddClass {
			added = append(added, e.Class)
		}
	}

	if s.anyMemberRule() {
		dirtyM := bitset.New(g.NumMemberNames())
		for _, ce := range res.Cone {
			dirtyM.Add(int(ce.Member))
		}
		// A new class extends the columns of every member visible in
		// it: rules that read whole columns (dead-member scans the
		// declarer's descendants) can change at old classes too.
		for _, c := range added {
			for _, m := range visibleMembers(g, c) {
				dirtyM.Add(int(m))
			}
		}
		tasks := make([]chg.MemberID, 0, dirtyM.Count())
		dirtyM.ForEach(func(i int) { tasks = append(tasks, chg.MemberID(i)) })
		s.stats.MemberTasks += len(tasks)
		for i, ds := range r.checkMembers(tasks) {
			s.memberDiags[tasks[i]] = ds
		}
	}

	if s.enabled[GxxDivergence] {
		dirtyRows := bitset.New(g.NumClasses())
		for _, ce := range res.Cone {
			// The cone was walked over the workspace the sync froze
			// into g, so both sets span g's classes.
			dirtyRows.UnionWith(ce.Classes)
		}
		for _, c := range added {
			dirtyRows.Add(int(c))
		}
		tasks := make([]chg.ClassID, 0, dirtyRows.Count())
		dirtyRows.ForEach(func(i int) { tasks = append(tasks, chg.ClassID(i)) })
		s.stats.RowTasks += len(tasks)
		for i, ds := range r.checkRows(tasks) {
			s.rowDiags[tasks[i]] = ds
		}
	}

	if s.anyStructuralRule() && len(added) > 0 {
		dirty := bitset.New(g.NumClasses())
		for _, c := range added {
			dirty.Add(int(c))
			g.Bases(c).ForEach(func(i int) { dirty.Add(i) })
		}
		tasks := make([]chg.ClassID, 0, dirty.Count())
		dirty.ForEach(func(i int) { tasks = append(tasks, chg.ClassID(i)) })
		s.stats.StructuralTasks += len(tasks)
		for i, ds := range r.checkStructure(tasks) {
			s.structDiags[tasks[i]] = ds
		}
	}
}

// finish rebuilds the canonical finding list from the buckets and
// computes the delta against the previous state.
func (s *Session) finish() {
	prev := s.cur
	n := 0
	for _, ds := range s.memberDiags {
		n += len(ds)
	}
	for _, ds := range s.rowDiags {
		n += len(ds)
	}
	for _, ds := range s.structDiags {
		n += len(ds)
	}
	out := make([]diag.Diagnostic, 0, n)
	for _, ds := range s.memberDiags {
		out = append(out, ds...)
	}
	for _, ds := range s.rowDiags {
		out = append(out, ds...)
	}
	for _, ds := range s.structDiags {
		out = append(out, ds...)
	}
	diag.Sort(out)
	s.cur = out
	s.delta = diag.Diff(prev, out)
}

// visibleMembers is Members[c] — member ids declared by c or any class
// in its base closure, sorted by id — computed from the graph alone,
// matching core.Table.Members cell-for-cell (a member is visible iff
// its lookup cell is defined).
func visibleMembers(g *chg.Graph, c chg.ClassID) []chg.MemberID {
	vis := bitset.New(g.NumMemberNames())
	addDecls := func(x chg.ClassID) {
		for _, mem := range g.DeclaredMembers(x) {
			if id, ok := g.MemberID(mem.Name); ok {
				vis.Add(int(id))
			}
		}
	}
	addDecls(c)
	g.Bases(c).ForEach(func(x int) { addDecls(chg.ClassID(x)) })
	out := make([]chg.MemberID, 0, vis.Count())
	vis.ForEach(func(i int) { out = append(out, chg.MemberID(i)) })
	return out
}
