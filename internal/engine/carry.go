package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/par"
)

// Warm-cache carry-over. An engine Update normally publishes a
// stone-cold snapshot: every cached cell of the predecessor is thrown
// away and refilled lazily, even though the paper's dependency
// structure says an edit at (X, m) can only change entries
// ({X} ∪ descendants(X)) × {m}. UpdateCarried exploits that: it seeds
// the successor's cell array by bulk-copying every packed cell of the
// predecessor and then zeroing exactly the invalidation cone, so only
// cone entries refill. The predecessor's payload pool is shared (or,
// when its garbage has piled up, chained: live payloads re-interned
// into a fresh pool and the carried words rewritten), keeping interned
// blue/static/path payloads valid without re-resolution.

// carryCompactMinGarbage is the pool-chaining threshold: a carried
// snapshot weighs its pool when the predecessor pool holds at least
// this many payloads, and carryShouldCompact decides. Compaction
// re-interns O(live) payloads, so the default policy waits until the
// garbage both clears the floor and outnumbers the live set — the
// amortised cost then stays below the interning work that produced
// the garbage. Vars so tests can force the compaction path.
var (
	carryCompactMinGarbage = 128
	carryShouldCompact     = func(live, garbage int) bool {
		return garbage >= carryCompactMinGarbage && garbage > live
	}
)

// carryParallelFloor gates the parallel carry path: columns below this
// many cells are copied and cone-cleared serially — goroutine fan-out
// costs more than the work there. A var so tests can force the
// parallel path onto small snapshots.
var carryParallelFloor = 1 << 20

// ConeEntry is one member name's invalidation cone, as computed by
// incremental.Workspace.InvalidationConeSince: the classes whose
// entries for Member may have changed since the predecessor snapshot.
// Classes may be over-approximate (extra bits cost extra refills, not
// wrong answers) but must never miss a changed entry — that is the
// caller's contract, which engine.WorkspaceBinding discharges with the
// workspace's edit log.
type ConeEntry struct {
	Member  chg.MemberID
	Classes *bitset.Set
}

// CarryStats reports what a carried snapshot inherited — the
// observability the benchmarks and experiments use to assert the
// carry actually happened. Carried/Invalidated count column 0
// (dominance) only, keeping the historical benchmark axes stable; each
// extra backend column reports its own pair in Columns.
type CarryStats struct {
	Carried     int // predecessor cells surviving into this snapshot
	Invalidated int // predecessor cells cleared by the cone

	PoolShared    bool // payload pool shared with the predecessor
	PoolCompacted bool // chained to a fresh pool, live payloads re-interned
	PoolLive      int  // distinct payloads the carried cells reference
	PoolGarbage   int  // dead payloads left behind in the predecessor's pool

	// Columns reports the per-backend carry of every extra semantics
	// column, in column order; nil for dominance-only snapshots.
	Columns []ColumnCarry

	// Workers is the parallelism the carry ran at: 1 for the serial
	// path (columns below carryParallelFloor cells, or a one-core
	// host), the work-stealing worker count otherwise.
	Workers int
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
// outside the given invalidation cone is copied over, so only entries
// an edit could have changed refill lazily. The caller guarantees the
// cone covers every (class, member) entry whose declarations changed
// between the two graphs; structural compatibility (class/member-name
// prefixes and inheritance edges unchanged, counts monotone) is
// verified here, and any mismatch falls back to a cold snapshot —
// carried and cold snapshots are indistinguishable except for speed
// and Carry().
//
// Like Update, earlier snapshots are untouched; concurrent readers
// keep the version they hold.
func (e *Engine) UpdateCarried(name string, g *chg.Graph, cone []ConeEntry) (*Snapshot, error) {
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
	if snap, ok := carriedSnapshot(name, ent.version, g, ent.opts, ent.snap, cone, e.carryWorkers); ok {
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
// reports ok=false when the graphs are not carry-compatible. workers
// caps the parallel copy/clear fan-out (≤ 0 means GOMAXPROCS); small
// columns stay serial regardless.
func carriedSnapshot(name string, version uint64, g *chg.Graph, opts []core.Option, prev *Snapshot, cone []ConeEntry, workers int) (*Snapshot, bool) {
	if prev == nil || !carryCompatible(prev.Graph(), g) {
		return nil, false
	}
	oldN, oldM := prev.numClasses, prev.numMembers
	newN, newM := g.NumClasses(), g.NumMemberNames()

	// Validate the cone's member ids once, up front, and note whether
	// the members are pairwise distinct: distinct members touch
	// disjoint cells, the disjointness the parallel clear relies on.
	// InvalidationConeSince emits one entry per member, so serving
	// syncs always parallelize; a hand-built overlapping cone falls
	// back to the serial clear.
	distinctMembers := true
	seenMember := make(map[chg.MemberID]bool, len(cone))
	for _, ce := range cone {
		if m := int(ce.Member); m < 0 || m >= newM {
			return nil, false
		}
		if seenMember[ce.Member] {
			distinctMembers = false
		}
		seenMember[ce.Member] = true
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Stage the carried cells directly in the successor's slices with
	// plain stores: the snapshot is not published yet, so no other
	// goroutine can observe it, and publication through the engine
	// mutex orders these writes before any reader's first load (worker
	// goroutines finish before carriedSnapshot returns, so their
	// writes are ordered too). The predecessor is still live (its
	// readers may be filling misses concurrently), so its side is read
	// atomically.
	//
	// The same invalidation cone clears every backend column: all
	// served semantics — dominance, C3, gxx — decide lookup[C,m] from
	// the declarations over C's base closure only (carry compatibility
	// pins the closure's edges), so an edit at (X, m) can change
	// exactly ({X} ∪ descendants(X)) × {m} entries under each of them.
	colWorkers := 1
	if total := newN * newM; workers > 1 && total >= carryParallelFloor {
		colWorkers = workers
	}
	clearWorkers := colWorkers
	if !distinctMembers {
		clearWorkers = 1
	}
	cells := make([]CellColumn, len(prev.cols))
	perCol := make([]ColumnCarry, len(prev.cols))
	invalidated := 0
	for i, pcol := range prev.cols {
		cc := make([]uint64, newN*newM)
		carried := carryCopy(pcol.cells, cc, oldN, newN, oldM, colWorkers)
		inval := coneClear(cc, cone, oldN, newN, clearWorkers)
		cells[i] = CellColumn{ID: pcol.id, Cells: cc}
		perCol[i] = ColumnCarry{ID: pcol.id, Carried: carried - inval, Invalidated: inval}
		invalidated += inval
	}
	stats := CarryStats{Carried: perCol[0].Carried, Invalidated: perCol[0].Invalidated, PoolShared: true, Workers: colWorkers}
	if len(perCol) > 1 {
		stats.Columns = perCol[1:]
	}

	// Pool lifetime: share the predecessor's pool (carried words keep
	// their payload indices) unless its garbage outweighs the live
	// payloads, in which case chain to a fresh pool and migrate.
	// Weighing the pool is an O(cells) scan, so it is skipped while
	// the garbage accrued since the last weigh — new interning (pool
	// growth) plus cone-cleared cells — cannot have reached the
	// compaction floor; steady-state serving republishes pay nothing.
	// Every column references the one shared pool, so liveness is the
	// union of their referenced payloads.
	pool := prev.pool
	weighedLen, invalSince := prev.poolWeighedLen, prev.invalSinceWeigh+invalidated
	if pool.Len()-weighedLen+invalSince >= carryCompactMinGarbage {
		lc := core.NewPoolLiveCounter()
		for _, col := range cells {
			for _, w := range col.Cells {
				lc.Observe(core.Cell(w))
			}
		}
		stats.PoolLive = lc.Live()
		stats.PoolGarbage = pool.Len() - stats.PoolLive
		if carryShouldCompact(stats.PoolLive, stats.PoolGarbage) {
			np := core.NewPool()
			mg := core.NewMigrator(pool, np)
			for _, col := range cells {
				for i, w := range col.Cells {
					if w != 0 {
						col.Cells[i] = uint64(mg.Migrate(core.Cell(w)))
					}
				}
			}
			pool = np
			stats.PoolShared, stats.PoolCompacted = false, true
		}
		weighedLen, invalSince = pool.Len(), 0
	}

	kopts := append(append([]core.Option(nil), opts...), core.WithPool(pool))
	snap, err := newSnapshot(name, version, core.NewKernel(g, kopts...), cells)
	if err != nil {
		return nil, false
	}
	snap.carry = stats
	snap.poolWeighedLen, snap.invalSinceWeigh = weighedLen, invalSince
	return snap, true
}

// carryCopy copies every nonzero predecessor cell into the successor
// column and returns the count, with workers stealing whole member
// columns: the predecessor's oldN-word column m lands at the start of
// the successor's column m, newN words apart when classes were added.
// Columns are disjoint, so workers write disjoint cells. Source reads
// are atomic — the predecessor is still serving.
func carryCopy(src, cells []uint64, oldN, newN, oldM, workers int) int {
	counts := make([]int, par.Workers(oldM, workers))
	par.For(oldM, workers, func(w, m int) {
		scol, dst := src[m*oldN:(m+1)*oldN], cells[m*newN:]
		n := 0
		for c := range scol {
			if v := atomic.LoadUint64(&scol[c]); v != 0 {
				dst[c] = v
				n++
			}
		}
		counts[w] += n
	})
	return sum(counts)
}

// coneClear zeroes the invalidation cone — for each entry, the cone
// classes' cells inside the member's one contiguous column — and
// returns how many live cells it cleared, with workers stealing whole
// entries. A bulk edit batch arrives as one entry per edited member
// (InvalidationConeSince unions the batch's cones per member first)
// and distinct members own disjoint columns, so the caller passes
// workers > 1 only when the entries' members are pairwise distinct.
// Cone classes the predecessor didn't know (c ≥ oldN), and entries
// whose member it didn't know, clear nothing: the copy never wrote
// those cells.
func coneClear(cells []uint64, cone []ConeEntry, oldN, newN, workers int) int {
	counts := make([]int, par.Workers(len(cone), workers))
	par.For(len(cone), workers, func(w, i int) {
		ce := cone[i]
		if ce.Classes == nil {
			return
		}
		col := cells[int(ce.Member)*newN:][:oldN]
		n := 0
		ce.Classes.ForEach(func(c int) {
			if c < oldN && col[c] != 0 {
				col[c] = 0
				n++
			}
		})
		counts[w] += n
	})
	return sum(counts)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
