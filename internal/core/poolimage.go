package core

// Pool freeze/thaw. The pool's storage is already relocatable — three
// flat integer arrays with offset handles — so "serializing" a pool is
// exposing those arrays, and "deserializing" one is wrapping arrays
// (typically memory-mapped by internal/image) without copying a byte.

import (
	"fmt"

	"cpplookup/internal/chg"
)

// PoolImage is the relocatable flat form of a pool: the exact arrays
// a Pool stores, holding integers only. The slices are views — the
// writer reads them in place, and PoolFromImage adopts them in place —
// so neither direction copies payload data.
type PoolImage struct {
	// Recs holds one fixed-size record per payload, stride
	// PoolRecWords: kind, Def.L, Def.V, then (offset, length) handle
	// pairs for StaticSet, StaticRed, Path (into IDs) and Blue (into
	// Defs). Length -1 encodes a nil slice.
	Recs []int32
	// IDs is the shared class-id arena behind StaticSet/StaticRed/Path.
	IDs []chg.ClassID
	// Defs is the shared Def arena behind Blue sets.
	Defs []Def
}

// PoolRecWords is the record stride of PoolImage.Recs.
const PoolRecWords = poolRecWords

// Image returns the pool's current contents as relocatable flat
// arrays, without copying. The views are immutable snapshots: the
// pool only grows by republishing fresh arrays, so later interning
// never mutates what Image returned. Safe for concurrent use.
//
// Consistency note for writers serializing a live snapshot: a cell
// published after the image was taken may reference a payload interned
// after it too. Copy cells after the image, and save every word the
// image does not Cover as unfilled (0): the cell refills after a load,
// and no saved word dangles.
func (p *Pool) Image() PoolImage {
	return PoolImage{
		Recs: *p.recs.Load(),
		IDs:  *p.ids.Load(),
		Defs: *p.defs.Load(),
	}
}

// Covers reports whether c reads correctly against img: c carries no
// payload (the zero word, Undefined, an inline Red), or the payload it
// indexes is one of img's records.
func (img PoolImage) Covers(c Cell) bool {
	return c.tag() != cellTagPooled || int(c.poolIndex()) < len(img.Recs)/poolRecWords
}

// CheckCells returns how many words of cells are filled (nonzero), or
// an error naming the first word that no cache over a graph of
// numClasses classes, packed over a pool imaged as img, can hold: each
// word must be 0 (unfilled), the canonical Undefined, an inline Red
// whose L is a class and whose V is a class or Ω, or a pooled word
// with its unused bits clear whose payload img Covers and backs.
// Together with PoolFromImage's checks it lets every word of a loaded
// cache be viewed, and read by a fill, without indexing out of range.
func CheckCells(cells []uint64, img PoolImage, numClasses int) (int, error) {
	n := uint64(numClasses)
	unfilled := 0
	for i, w := range cells {
		if w < cellTagRed<<cellTagShift {
			// 0 or Undefined: no bit below the tag is set.
			if w<<2 == 0 {
				if w == 0 {
					unfilled++
				}
				continue
			}
		} else if w < cellTagPooled<<cellTagShift {
			// Inline Red: L, biased by one, is a class; V a class or Ω.
			if w>>cellLShift&cellFieldMask-1 < n && w&cellFieldMask <= n {
				continue
			}
		} else if c := Cell(w); img.Covers(c) && w>>32&(1<<(cellKindShift-32)-1) == 0 && img.backs(c) {
			continue
		}
		return 0, fmt.Errorf("cell %d: word %#x is not a cell of %d classes over %d payloads", i, w, numClasses, len(img.Recs)/poolRecWords)
	}
	return len(cells) - unfilled, nil
}

// backs reports whether the payload img holds at pooled cell c's index
// can back c: it is of c's kind, and its static set is nil or not
// empty — a resolution reads a first abstraction from the set, and
// the kernel stores one only with two or more.
func (img PoolImage) backs(c Cell) bool {
	r := img.Recs[int(c.poolIndex())*poolRecWords:]
	return Kind(r[recKind]) == c.Kind() && r[recSSLen] != 0
}

// PoolImageError reports a structurally invalid pool image — the
// typed rejection the image loader surfaces instead of serving
// corrupt payloads.
type PoolImageError struct {
	Rec    int // offending record index, -1 for array-level faults
	Reason string
}

func (e *PoolImageError) Error() string {
	if e.Rec < 0 {
		return "core: pool image: " + e.Reason
	}
	return fmt.Sprintf("core: pool image: record %d: %s", e.Rec, e.Reason)
}

// PoolFromImage wraps relocatable pool arrays as a servable Pool
// without copying them: record handles resolve straight into the
// given arenas, so a memory-mapped image is served from the mapped
// bytes. The arrays are validated structurally (stride, kinds, every
// handle in bounds, every Def and arena class id Ω or below
// numClasses, a class as every red or failed payload's L) —
// O(payloads + arenas), independent of any cell cache — and must not
// be mutated by the caller afterwards.
//
// The returned pool supports interning on top of the frozen base:
// the first intern rebuilds the dedup index lazily and the first
// arena growth copies onto the heap (copy-on-write promotion), so
// read-only serving stays zero-copy while carried successors of a
// mapped snapshot behave like any other pool sharer.
func PoolFromImage(img PoolImage, numClasses int) (*Pool, error) {
	if len(img.Recs)%poolRecWords != 0 {
		return nil, &PoolImageError{Rec: -1, Reason: fmt.Sprintf("record array length %d is not a multiple of the %d-word stride", len(img.Recs), poolRecWords)}
	}
	for i, c := range img.IDs {
		if !classOrOmega(c, numClasses) {
			return nil, &PoolImageError{Rec: -1, Reason: fmt.Sprintf("class-id arena entry %d is %d, not a class of %d or Ω", i, c, numClasses)}
		}
	}
	for i, d := range img.Defs {
		if !classOrOmega(d.L, numClasses) || !classOrOmega(d.V, numClasses) {
			return nil, &PoolImageError{Rec: -1, Reason: fmt.Sprintf("def arena entry %d is (%d, %d), not classes of %d or Ω", i, d.L, d.V, numClasses)}
		}
	}
	n := len(img.Recs) / poolRecWords
	checkSeg := func(rec int, what string, off, ln int32, arena int) error {
		if ln < 0 {
			return nil // nil slice; the offset is ignored
		}
		if off < 0 || int64(off)+int64(ln) > int64(arena) {
			return &PoolImageError{Rec: rec, Reason: fmt.Sprintf("%s segment [%d,%d) exceeds arena of %d", what, off, off+ln, arena)}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		r := img.Recs[i*poolRecWords : (i+1)*poolRecWords]
		if k := r[recKind]; k < int32(Undefined) || k > int32(FailKind) {
			return nil, &PoolImageError{Rec: i, Reason: fmt.Sprintf("unknown payload kind %d", k)}
		}
		l, v := chg.ClassID(r[recL]), chg.ClassID(r[recV])
		if !classOrOmega(l, numClasses) || !classOrOmega(v, numClasses) {
			return nil, &PoolImageError{Rec: i, Reason: fmt.Sprintf("def (%d, %d) is not classes of %d or Ω", l, v, numClasses)}
		}
		if k := Kind(r[recKind]); l == chg.Omega && (k == RedKind || k == FailKind) {
			return nil, &PoolImageError{Rec: i, Reason: fmt.Sprintf("%s payload names no class", k)}
		}
		if err := checkSeg(i, "StaticSet", r[recSSOff], r[recSSLen], len(img.IDs)); err != nil {
			return nil, err
		}
		if err := checkSeg(i, "StaticRed", r[recSROff], r[recSRLen], len(img.IDs)); err != nil {
			return nil, err
		}
		if err := checkSeg(i, "Path", r[recPOff], r[recPLen], len(img.IDs)); err != nil {
			return nil, err
		}
		if err := checkSeg(i, "Blue", r[recBOff], r[recBLen], len(img.Defs)); err != nil {
			return nil, err
		}
	}
	p := &Pool{n: uint32(n)} // index stays nil: rebuilt lazily on first intern
	recs, ids, defs := img.Recs, img.IDs, img.Defs
	if recs == nil {
		recs = []int32{}
	}
	if ids == nil {
		ids = []chg.ClassID{}
	}
	if defs == nil {
		defs = []Def{}
	}
	p.recs.Store(&recs)
	p.ids.Store(&ids)
	p.defs.Store(&defs)
	return p, nil
}

// classOrOmega reports whether c is Ω or one of numClasses class ids.
func classOrOmega(c chg.ClassID, numClasses int) bool {
	return c >= chg.Omega && int64(c) < int64(numClasses)
}

// EqualPayloads reports whether two pools hold logically identical
// payload sequences — same count, each record decoding to the same
// payload. Index order matters (cells reference payloads by index),
// which is exactly what a round-tripped image must preserve. Intended
// for tests and image self-checks.
func EqualPayloads(a, b *Pool) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := uint32(0); i < uint32(a.Len()); i++ {
		pa, pb := a.payloadAt(i), b.payloadAt(i)
		if pa.kind != pb.kind || pa.def != pb.def ||
			!idsEqual(pa.staticSet, pb.staticSet) ||
			!idsEqual(pa.staticRed, pb.staticRed) ||
			!idsEqual(pa.path, pb.path) ||
			!defsEqual(pa.blue, pb.blue) {
			return false
		}
	}
	return true
}
