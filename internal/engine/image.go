package engine

// Image-backed snapshots. internal/image persists a snapshot's warm
// state — graph, payload pool, and every backend's packed-cell
// column — as a relocatable flat-buffer file; this file is the engine
// side of that contract: exporting a live snapshot's columns as flat
// member-major arrays for the writer, and reassembling a Snapshot
// whose runs alias memory-mapped bytes. A snapshot built from mapped
// columns serves warm hits straight out of the map (one atomic word
// load, zero deserialization); misses fill cells with the usual atomic
// stores, which land in the map's private copy-on-write pages. A carried
// successor copies each mapped run the first time it carries it (the
// run's published words were never counted), and from then on shares
// or extends its own copies like any heap run.

import (
	"fmt"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// CellColumn is one resolution backend's cells as one flat array, in
// the snapshot's member-major layout: member m's run is the NumClasses
// contiguous words from m·NumClasses. The dominance column is always
// present and always first.
type CellColumn struct {
	ID    core.SemanticsID
	Cells []uint64
}

// CopyColumns returns an atomic copy of every cache column the
// snapshot serves, dominance first, each assembled from its runs into
// one flat CellColumn — the consistent read an image writer needs while
// concurrent fills may be publishing cells. Each word is loaded
// atomically; a torn column is impossible, and any pooled payload a
// copied word references is already fully interned (cells publish after
// their payloads).
func (s *Snapshot) CopyColumns() []CellColumn {
	out := make([]CellColumn, len(s.cols))
	for i, col := range s.cols {
		cells := make([]uint64, s.numMembers*s.numClasses)
		for m, r := range col.runs {
			dst := cells[m*s.numClasses:]
			for c := range r.words {
				dst[c] = atomic.LoadUint64(&r.words[c])
			}
		}
		out[i] = CellColumn{ID: col.id, Cells: cells}
	}
	return out
}

// WarmAll fills every (class, member) cell of every backend column —
// the eager warm-up an image save performs so the persisted cache
// answers the whole table without a single miss. Each column is filled
// from one whole-table build of its backend, the same streamed build
// Table and TableSem run: every word still 0 takes the table's cell
// (Undefined for a name its class cannot see) by a compare-and-swap
// from 0, and the swaps won are added to the run's count. The build
// runs on one worker, because a parallel build interns payloads in
// scheduling order and an image's bytes would then vary from save to
// save; the table is dropped once its column is filled.
//
// Safe for concurrent use with lookups and with other WarmAll calls. A
// table word equals what a lazy fill would publish — both intern into
// the column's pool, which dedups payloads by content — so a swap lost
// to a concurrent fill, or a fill's swap landing after it, leaves the
// same answer, counted once. That holds for a run shared with a carried
// predecessor or successor too: the words it gains serve both.
func (s *Snapshot) WarmAll() {
	for _, col := range s.cols {
		t := core.BuildSemTable(col.sem, 1)
		for m, r := range col.runs {
			n := 0
			for c := range r.words {
				w := uint64(t.Lookup(chg.ClassID(c), chg.MemberID(m)).Cell())
				if atomic.CompareAndSwapUint64(&r.words[c], 0, w) {
					n++
				}
			}
			if n > 0 && r.st != nil {
				r.st.filled.Add(int64(n))
			}
		}
	}
}

// NewSnapshotFromParts assembles a standalone snapshot (version 1, no
// engine) around externally produced cache columns — the image
// loader's constructor. The columns must be dominance-first, each
// backend at most once, each of length NumClasses×NumMemberNames in
// CellColumn's member-major layout, packed over pool; each is sliced
// into its runs without copying, so mapped columns serve from the
// mapped bytes. trackPaths/staticRule must match the flags the cells
// were resolved under (the image header records them).
func NewSnapshotFromParts(g *chg.Graph, pool *core.Pool, cols []CellColumn, trackPaths, staticRule bool) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil graph")
	}
	if pool == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil pool")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: snapshot from parts: no columns")
	}
	ids := make([]core.SemanticsID, len(cols))
	for i, col := range cols {
		ids[i] = col.ID
	}
	opts := []core.Option{core.WithPool(pool), core.WithSemantics(ids...)}
	if trackPaths {
		opts = append(opts, core.WithTrackPaths())
	}
	if staticRule {
		opts = append(opts, core.WithStaticRule())
	}
	k := core.NewKernel(g, opts...)
	numN, numM := g.NumClasses(), g.NumMemberNames()
	if err := checkColumns(cols, columnIDs(k), numN*numM); err != nil {
		return nil, fmt.Errorf("engine: snapshot from parts: %w", err)
	}
	runCols := make([]*column, len(cols))
	for i, col := range cols {
		runCols[i] = &column{id: col.ID, runs: carve(col.Cells, numN, numM, false)}
	}
	s, err := newSnapshot("", 1, k, runCols)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot from parts: %w", err)
	}
	return s, nil
}

// Adopt registers an existing snapshot (typically one loaded from a
// mapped image) as the current version of name, so later Update /
// UpdateCarried calls republish on top of it — the warm-start path: a
// process restarts, maps yesterday's image, adopts it, and carries its
// cache forward through the day's edits. The adopted snapshot's
// options (semantics columns, flags) become the name's options. It is
// an error to adopt over an already-registered name or a nil snapshot.
func (e *Engine) Adopt(name string, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("engine: Adopt(%q) with a nil snapshot", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.entries[name]; dup {
		return fmt.Errorf("engine: hierarchy %q already registered (use Update to publish a new version)", name)
	}
	k := s.k
	opts := []core.Option{core.WithSemantics(k.ExtraSemantics()...)}
	if k.TrackPaths() {
		opts = append(opts, core.WithTrackPaths())
	}
	if k.StaticRule() {
		opts = append(opts, core.WithStaticRule())
	}
	// The adopted copy shares s's columns, locks and tables included:
	// both snapshots fill the same cells under the same shard locks.
	adopted := *s
	adopted.name, adopted.version = name, 1
	e.entries[name] = &entry{opts: opts, version: 1, snap: &adopted}
	e.order = append(e.order, name)
	return nil
}
