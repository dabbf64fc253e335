package engine

import (
	"fmt"
	"sync/atomic"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/incremental"
)

// Warm-cache carry-over. An engine Update normally publishes a
// stone-cold snapshot: every cached cell of the predecessor is thrown
// away and refilled lazily, even though the paper's dependency
// structure says an edit at (X, m) can only change entries
// ({X} ∪ descendants(X)) × {m}. UpdateCarried exploits that, one
// member run at a time. Figure 8's lookup[C,m] reads only entries for
// m, so a member name that no edit in the window touched has the same
// entry at every old class in both versions: the successor references
// the predecessor's run instead of copying it, extended in place over
// the zero words of added classes. Only the edited members' runs are
// copied, with their cones cleared in the copies, and new member names
// start from fresh zero runs; a republish costs O(edited members·|N|),
// not O(|M|·|N|). The predecessor's payload pool is shared (or, when
// its garbage has piled up, chained: live payloads re-interned into a
// fresh pool and every run copied with its words rewritten), keeping
// interned blue/static/path payloads valid without re-resolution.

// carryCompactMinGarbage is the pool-chaining threshold: a carried
// snapshot compacts its pool only when the garbage — payloads no cell
// references — reaches this floor, and carryShouldCompact decides.
// Compaction re-interns O(live) payloads, so the default policy waits
// until the garbage both clears the floor and outnumbers the live set —
// the amortised cost then stays below the interning work that produced
// the garbage. carryShouldCompact must be monotone in the garbage
// (true for (live, garbage) implies true for (live−d, garbage+d)):
// carriedSnapshot skips weighing the pool when the policy fails at an
// upper bound on the garbage. Vars so tests can force the compaction
// path.
var (
	carryCompactMinGarbage = 128
	carryShouldCompact     = func(live, garbage int) bool {
		return garbage >= carryCompactMinGarbage && garbage > live
	}
)

// CarryStats reports what a carried snapshot inherited — the
// observability the benchmarks and experiments use to assert the
// carry actually happened. Carried/Invalidated count column 0
// (dominance) only, keeping the historical benchmark axes stable; each
// extra backend column reports its own pair in Columns.
type CarryStats struct {
	Carried     int // predecessor cells surviving into this snapshot
	Invalidated int // predecessor cells cleared by the cone

	// Copied counts the predecessor words copied into fresh runs, over
	// every column: the edited members' runs, shared runs too short for
	// the added classes, and every run of a compaction. The runs of
	// unedited members that carry shares cost nothing.
	Copied int

	PoolShared    bool // payload pool shared with the predecessor
	PoolCompacted bool // chained to a fresh pool, live payloads re-interned
	PoolWeighed   bool // every cell scanned to count the pool's live payloads
	PoolLive      int  // distinct payloads the carried cells reference, when weighed
	PoolGarbage   int  // dead payloads left behind in the predecessor's pool, when weighed

	// Columns reports the per-backend carry of every extra semantics
	// column, in column order; nil for dominance-only snapshots.
	Columns []ColumnCarry
}

// ColumnCarry is one backend column's share of a warm carry.
type ColumnCarry struct {
	ID          core.SemanticsID
	Carried     int
	Invalidated int
}

// Carry returns the snapshot's carry-over statistics; the zero value
// for snapshots published cold.
func (s *Snapshot) Carry() CarryStats { return s.carry }

// UpdateCarried publishes a new version of name wrapping g, seeding
// its cache from the currently published snapshot: every packed cell
// outside the given invalidation cone carries over — shared for the
// member names the cone does not list, copied for those it does — so
// only entries an edit could have changed refill lazily. The caller
// guarantees the cone covers every (class, member) entry whose
// declarations changed between the two graphs, as
// incremental.Workspace.InvalidationConeSince computes it; extra
// classes cost refills, not wrong answers. Structural
// compatibility (class/member-name prefixes and inheritance edges
// unchanged, counts monotone) is verified here, and any mismatch falls
// back to a cold snapshot — carried and cold snapshots are
// indistinguishable except for speed and Carry().
//
// Like Update, earlier snapshots are untouched; concurrent readers
// keep the version they hold.
func (e *Engine) UpdateCarried(name string, g *chg.Graph, cone []incremental.MemberCone) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: UpdateCarried(%q) with a nil graph", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.entries[name]
	if !ok {
		return nil, fmt.Errorf("engine: hierarchy %q is not registered", name)
	}
	ent.version++
	if snap, ok := carriedSnapshot(name, ent.version, g, ent.opts, ent.snap, cone); ok {
		ent.snap = snap
	} else {
		snap, err := newSnapshot(name, ent.version, core.NewKernel(g, ent.opts...), nil)
		if err != nil {
			return nil, err
		}
		ent.snap = snap
	}
	return ent.snap, nil
}

// carryCompatible verifies the structural invariants carry-over
// depends on: the predecessor's classes and member names must be an
// id-stable prefix of the successor's (incremental.Workspace freezes
// guarantee this), and no surviving class may have changed its base
// clause — C++ classes are closed at definition, so a differing edge
// means the graphs are not an edit sequence apart and the copy would
// be unsound.
func carryCompatible(old, new *chg.Graph) bool {
	if new.NumClasses() < old.NumClasses() || new.NumMemberNames() < old.NumMemberNames() {
		return false
	}
	for c := 0; c < old.NumClasses(); c++ {
		id := chg.ClassID(c)
		if old.Name(id) != new.Name(id) {
			return false
		}
		ob, nb := old.DirectBases(id), new.DirectBases(id)
		if len(ob) != len(nb) {
			return false
		}
		for i := range ob {
			if ob[i] != nb[i] {
				return false
			}
		}
	}
	for m := 0; m < old.NumMemberNames(); m++ {
		if old.MemberName(chg.MemberID(m)) != new.MemberName(chg.MemberID(m)) {
			return false
		}
	}
	return true
}

// carriedSnapshot builds the successor snapshot seeded from prev, or
// reports ok=false when the graphs are not carry-compatible.
//
// The same invalidation cone governs every backend column: all served
// semantics — dominance, C3, gxx — decide lookup[C,m] from the
// declarations over C's base closure only (carry compatibility pins the
// closure's edges), so an edit at (X, m) can change exactly
// ({X} ∪ descendants(X)) × {m} entries under each of them, and a member
// the cone does not list keeps every old entry. Sharing such a run is
// sound while both versions read one pool: a lazy fill into a shared
// word lands in both, and both compute the same word for it.
func carriedSnapshot(name string, version uint64, g *chg.Graph, opts []core.Option, prev *Snapshot, cone []incremental.MemberCone) (*Snapshot, bool) {
	if prev == nil || !carryCompatible(prev.Graph(), g) {
		return nil, false
	}
	oldN, newN, newM := prev.numClasses, g.NumClasses(), g.NumMemberNames()
	edited := make([]bool, prev.numMembers)
	for _, ce := range cone {
		m := int(ce.Member)
		if m < 0 || m >= newM {
			return nil, false
		}
		if m < len(edited) {
			edited[m] = true
		}
	}

	// Stage the copied runs with plain stores: they are fresh, and
	// publication through the engine mutex orders these writes before
	// any reader's first load. The predecessor is still live (its
	// readers may be filling misses concurrently, shared runs
	// included), so its words are read atomically, and carry never
	// writes a shared run: an edited member's run is always copied
	// before its cone is cleared.
	stats := CarryStats{PoolShared: true}
	dropped := core.NewPoolLiveCounter()
	cols := make([]*column, len(prev.cols))
	for i, pcol := range prev.cols {
		runs := make([]run, newM)
		cc := ColumnCarry{ID: pcol.id}
		for m, pr := range pcol.runs {
			if !edited[m] {
				if r, filled, ok := pr.share(newN); ok {
					runs[m] = r
					cc.Carried += filled
					continue
				}
			}
			r, filled := pr.copy(newN, nil)
			runs[m] = r
			cc.Carried += filled
			stats.Copied += len(pr.words)
		}
		for m := len(pcol.runs); m < newM; m++ {
			runs[m] = newRun(newN)
		}
		for _, ce := range cone {
			if int(ce.Member) < len(pcol.runs) && ce.Classes != nil {
				cc.Invalidated += runs[ce.Member].clear(ce.Classes, oldN, dropped)
			}
		}
		cc.Carried -= cc.Invalidated
		cols[i] = &column{id: pcol.id, runs: runs}
		if i == 0 {
			stats.Carried, stats.Invalidated = cc.Carried, cc.Invalidated
		} else {
			stats.Columns = append(stats.Columns, cc)
		}
	}

	// Pool lifetime: share the predecessor's pool (carried words keep
	// their payload indices) unless its garbage outweighs the live
	// payloads, in which case chain to a fresh pool and migrate.
	// Weighing the pool scans every cell, so it runs only when an upper
	// bound on the garbage could meet carryShouldCompact. The bound is
	// sound: garbage is exact at a weigh, and between weighs a payload
	// turns into garbage only by being interned (counted by the pool's
	// growth since) or by a cone clear dropping its last reference
	// (counted by the distinct payloads each clear dropped, which summed
	// over the clears since is at least their union). Fills only add
	// references, and sharing, extending or copying a run keeps every
	// word of the predecessor that the cone did not clear. Every column
	// references the one shared pool, so liveness is the union of their
	// referenced payloads.
	pool := prev.pool
	seen := pool.Len()
	bound := prev.garbageBound + (seen - prev.poolSeen) + dropped.Live()
	if carryShouldCompact(seen-bound, bound) {
		lc := core.NewPoolLiveCounter()
		for _, col := range cols {
			for _, r := range col.runs {
				for c := range r.words {
					lc.Observe(core.Cell(atomic.LoadUint64(&r.words[c])))
				}
			}
		}
		seen = pool.Len()
		stats.PoolWeighed, stats.PoolLive = true, lc.Live()
		stats.PoolGarbage = seen - stats.PoolLive
		bound = stats.PoolGarbage
		if carryShouldCompact(stats.PoolLive, stats.PoolGarbage) {
			// Compaction rewrites every word's payload index, so it
			// copies every run: a shared run still serves the
			// predecessor, whose cells index the old pool.
			np := core.NewPool()
			mg := core.NewMigrator(pool, np)
			for _, col := range cols {
				for m, r := range col.runs {
					col.runs[m], _ = r.copy(len(r.words), mg)
					stats.Copied += len(r.words)
				}
			}
			pool = np
			seen, bound = np.Len(), 0
			stats.PoolShared, stats.PoolCompacted = false, true
		}
	}

	kopts := append(append([]core.Option(nil), opts...), core.WithPool(pool))
	snap, err := newSnapshot(name, version, core.NewKernel(g, kopts...), cols)
	if err != nil {
		return nil, false
	}
	snap.carry = stats
	snap.garbageBound, snap.poolSeen = bound, seen
	return snap, true
}

// share returns r for a successor with n classes — the same words,
// extended in place over zero words when n exceeds r's length — and
// the count of r's published words, or ok=false when r must be copied:
// its words came from outside the engine (adopted), its backing
// array lacks room for n words, or another successor of r's version
// already claimed the words past r's end.
func (r run) share(n int) (shared run, filled int, ok bool) {
	if r.st.adopted {
		return run{}, 0, false
	}
	// claimed only grows, so finding it at len(r.words) after loading
	// filled means no version could yet write past r's end: the count
	// covers exactly r's words.
	f := r.st.filled.Load()
	if r.st.claimed.Load() != int64(len(r.words)) {
		return run{}, 0, false
	}
	if n > len(r.words) && (n > cap(r.words) || !r.st.claimed.CompareAndSwap(int64(len(r.words)), int64(n))) {
		return run{}, 0, false
	}
	return run{words: r.words[:n], st: r.st}, int(f), true
}

// copy returns a fresh run of n words holding r's published words,
// rewritten through mg when it is non-nil, and how many there are. r
// may be filling concurrently, so its words are loaded atomically.
func (r run) copy(n int, mg *core.Migrator) (run, int) {
	nr := newRun(n)
	filled := 0
	for c := range r.words {
		if w := atomic.LoadUint64(&r.words[c]); w != 0 {
			if mg != nil {
				w = uint64(mg.Migrate(core.Cell(w)))
			}
			nr.words[c] = w
			filled++
		}
	}
	nr.st.filled.Store(int64(filled))
	return nr, filled
}

// clear zeroes the published words of r at the cone's classes below
// oldN, observing each dropped word in dropped, and returns how many it
// cleared. r must be a fresh copy no published version shares. A cone
// class the predecessor didn't know (c ≥ oldN) clears nothing: the copy
// never wrote its word.
func (r run) clear(cone *bitset.Set, oldN int, dropped *core.PoolLiveCounter) int {
	n := 0
	cone.ForEach(func(c int) {
		if c < oldN && r.words[c] != 0 {
			dropped.Observe(core.Cell(r.words[c]))
			r.words[c] = 0
			n++
		}
	})
	r.st.filled.Add(-int64(n))
	return n
}
