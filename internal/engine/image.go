package engine

// Image-backed snapshots. internal/image persists a snapshot's warm
// state — graph, payload pool, and every backend's packed-cell
// column — as a relocatable flat-buffer file; this file is the engine
// side of that contract: copying a live snapshot's cell plane for the
// writer, and carving a loaded plane back into a Snapshot whose runs
// alias memory-mapped bytes. A snapshot built from mapped
// columns serves warm hits straight out of the map (one atomic word
// load, zero deserialization); misses fill cells with the usual atomic
// stores, which land in the map's private copy-on-write pages. A carried
// successor copies each mapped run the first time it carries it (the
// run is marked adopted), and from then on shares or extends its own
// copies like any heap run.

import (
	"fmt"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// CopyCells copies the snapshot's cell plane into dst: every column in
// Semantics order, each member-major (member m's NumClasses words from
// m·NumClasses), so len(dst) must be len(Semantics())·NumClasses·
// NumMemberNames. Words are loaded atomically, and a word whose payload
// cut does not cover is copied as 0 (unfilled): a writer that images
// the pool first may meet cells whose payloads a concurrent fill
// interned after cut, and such a cell refills after a load instead of
// indexing past the saved pool.
func (s *Snapshot) CopyCells(dst []uint64, cut core.PoolImage) {
	if want := len(s.cols) * s.numMembers * s.numClasses; len(dst) != want {
		panic(fmt.Sprintf("engine: CopyCells into %d words, want %d", len(dst), want))
	}
	for _, col := range s.cols {
		for _, r := range col.runs {
			for c := range r.words {
				w := atomic.LoadUint64(&r.words[c])
				if !cut.Covers(core.Cell(w)) {
					w = 0
				}
				dst[c] = w
			}
			dst = dst[s.numClasses:]
		}
	}
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
	undefined := uint64(core.UndefinedResult().Cell())
	// next[c] indexes the first entry of class c's row not yet
	// scattered: runs ascend by member id and rows are sorted, so each
	// cursor only advances, and no cell is searched for.
	next := make([]int, s.numClasses)
	for _, col := range s.cols {
		t := core.BuildSemTable(col.sem, 1)
		clear(next)
		for m, r := range col.runs {
			n := 0
			for c := range r.words {
				w := undefined
				if ms, cells := t.Row(chg.ClassID(c)); next[c] < len(ms) && ms[next[c]] == chg.MemberID(m) {
					w = uint64(cells[next[c]])
					next[c]++
				}
				if atomic.CompareAndSwapUint64(&r.words[c], 0, w) {
					n++
				}
			}
			if n > 0 {
				r.st.filled.Add(int64(n))
			}
		}
	}
}

// NewSnapshotFromParts assembles a standalone snapshot (version 1, no
// engine) around an externally produced cell plane — the image
// loader's constructor. ids lists the plane's backends, dominance
// first, each once; cells holds their columns in CopyCells' layout,
// packed over pool, and is carved into runs without copying, so a
// mapped plane serves from the mapped bytes. Every word is checked
// against g and pool (core.CheckCells) in the same pass that counts
// each run's filled words, so a malformed plane is an error and
// CachedEntries reads counts; the runs are marked adopted, so a carry
// copies them rather than sharing them. trackPaths/staticRule must
// match the flags the cells were resolved under (the image header
// records them).
func NewSnapshotFromParts(g *chg.Graph, pool *core.Pool, ids []core.SemanticsID, cells []uint64, trackPaths, staticRule bool) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil graph")
	}
	if pool == nil {
		return nil, fmt.Errorf("engine: snapshot from parts: nil pool")
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("engine: snapshot from parts: no columns")
	}
	opts := []core.Option{core.WithPool(pool), core.WithSemantics(ids...)}
	if trackPaths {
		opts = append(opts, core.WithTrackPaths())
	}
	if staticRule {
		opts = append(opts, core.WithStaticRule())
	}
	numN, numM := g.NumClasses(), g.NumMemberNames()
	size := numN * numM
	if len(cells) != len(ids)*size {
		return nil, fmt.Errorf("engine: snapshot from parts: cell plane has %d words, want %d columns × %d", len(cells), len(ids), size)
	}
	img := pool.Image()
	cols := make([]*column, len(ids))
	for i, id := range ids {
		runs := carve(cells[i*size:(i+1)*size], numN, numM)
		for m, r := range runs {
			n, err := core.CheckCells(r.words, img, numN)
			if err != nil {
				return nil, fmt.Errorf("engine: snapshot from parts: column %s, member %d: %w", id, m, err)
			}
			r.st.filled.Store(int64(n))
			r.st.adopted = true
		}
		cols[i] = &column{id: id, runs: runs}
	}
	s, err := newSnapshot("", 1, core.NewKernel(g, opts...), cols)
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
