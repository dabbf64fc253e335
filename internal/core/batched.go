package core

import (
	"math/bits"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// blockBits is the member-block width: one word of the membership
// matrix, so a class's participation in a whole block is a single
// uint64 mask probe.
const blockBits = 64

// blockScratch is one fill worker's reusable state: 64 packed-cell
// columns (column j holds the block's member j results per class, zero
// = not filled / undefined), the touched-class list for sparse
// clearing between blocks, and the resolve temporaries.
type blockScratch struct {
	cols    []Cell // column j is cols[j*n : (j+1)*n]
	touched []chg.ClassID
	rs      resolveScratch
}

func newBlockScratch(n int) *blockScratch {
	return &blockScratch{cols: make([]Cell, blockBits*n)}
}

// fillBlock fills every table entry of member block b (member ids
// [64b, 64b+64)) in one walk of the shared topological order. At class
// C the block's mask word says, in one load, which of the 64 members
// are in Members[C]; a zero mask skips C entirely, so a member defined
// in a small cone never drags the walk across the rest of the
// hierarchy, and per-entry cost is proportional to Σ|supp(m)| (plus
// one mask probe per class per block) instead of the member-major
// |M|·|N|. Because the block's members occupy a contiguous run of each
// class's sorted member list, the set bits of the mask word map
// one-to-one onto consecutive result slots starting at the run's lower
// bound — no per-member search. The scratch's columns make a base's
// result an O(1) read and its resolve temporaries make steady-state
// filling allocation-free. Distinct blocks write disjoint table
// entries and the payload pool is concurrency-safe, so workers holding
// their own scratch fill blocks of one table concurrently.
//
// mm and decl hold the membership and declaration bits of a chunk
// window starting at block wordOff: block b is word b−wordOff of each
// row.
func (k *Kernel) fillBlock(t *Table, mm, decl *bitset.Matrix, b int, sc *blockScratch, wordOff int) {
	g := k.g
	n := g.NumClasses()
	first := chg.MemberID(b * blockBits)
	sc.touched = sc.touched[:0]
	for _, c := range g.Topo() {
		w := mm.Row(int(c)).Word(b - wordOff)
		if w == 0 {
			continue
		}
		sc.touched = append(sc.touched, c)
		dw := decl.Row(int(c)).Word(b - wordOff)
		bases := g.DirectBases(c)
		rs := t.results[c]
		idx := memberLowerBound(t.members[c], first)
		for ; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			declared := dw&(1<<uint(j)) != 0
			col := sc.cols[j*n : (j+1)*n]
			var cell Cell
			if !declared {
				cell = singleRedFastPath(col, bases)
			}
			if cell == 0 {
				m := first + chg.MemberID(j)
				cell = k.resolveDeclared(c, m, declared, func(x chg.ClassID) Result {
					if cc := col[x]; cc != 0 {
						return k.pool.View(cc)
					}
					return UndefinedResult()
				}, &sc.rs).Cell()
			}
			col[int(c)] = cell
			rs[idx] = cell
			idx++
		}
	}
	// Sparse clear: only the cells this block wrote, found by replaying
	// the nonzero masks — O(entries filled), not O(64·|N|).
	for _, c := range sc.touched {
		w := mm.Row(int(c)).Word(b - wordOff)
		for ; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			sc.cols[j*n+int(c)] = 0
		}
	}
}

// singleRedFastPath handles the overwhelmingly common table entry
// without the full resolve machinery: the class doesn't declare the
// member and exactly one direct base defines it, with an inline red
// (no static coverage, no tracked path — those are pooled cells)
// result. Such an entry is the base's Def pushed through Definition
// 15's ∘ operator, which on an inline cell is pure bit surgery: V
// stays if it is a class, becomes the base on a virtual edge, stays Ω
// otherwise. Returns 0 (never a valid cell) when the entry needs the
// slow path: member declared here, several contributing bases, a blue
// or pooled base result.
func singleRedFastPath(col []Cell, bases []chg.Edge) Cell {
	var found Cell
	var virt bool
	var base chg.ClassID
	for _, e := range bases {
		cc := col[e.Base]
		if cc == 0 {
			continue
		}
		if found != 0 {
			return 0 // second contributor: real dominance work needed
		}
		found, virt, base = cc, e.Kind == chg.Virtual, e.Base
	}
	if found.tag() != cellTagRed {
		return 0 // blue or pooled payload: slow path
	}
	if virt && uint64(found)&cellFieldMask == 0 {
		// V = Ω crossing a virtual edge becomes the base class.
		vf, ok := biasID(base)
		if !ok {
			return 0
		}
		return found | Cell(vf)
	}
	return found
}

// memberLowerBound returns the first index of a sorted member list
// whose id is ≥ m (len(ms) if none).
func memberLowerBound(ms []chg.MemberID, m chg.MemberID) int {
	lo, hi := 0, len(ms)
	for lo < hi {
		mid := (lo + hi) / 2
		if ms[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TableBuildWork quantifies, analytically, what each whole-table
// strategy must visit on a given hierarchy — the "visited entries"
// axis of experiment E14, computed from the membership matrix rather
// than by instrumenting the hot paths.
type TableBuildWork struct {
	Entries             int // Σ|Members[C]| — resolve calls every strategy makes
	Blocks              int // ⌈|M|/64⌉ member blocks
	BatchedClassVisits  int // (class, block) pairs with a nonzero mask — where the batched walk does work
	BatchedWalkSlots    int // Blocks·|N| — total mask probes of the batched walk
	UnprunedClassVisits int // |M|·|N| — class visits of the member-major full pass
}

// MeasureTableBuildWork computes the work profile of g's table build.
func MeasureTableBuildWork(g *chg.Graph) TableBuildWork {
	mm := MemberMatrix(g)
	n := g.NumClasses()
	m := g.NumMemberNames()
	w := TableBuildWork{
		Blocks:              (m + blockBits - 1) / blockBits,
		UnprunedClassVisits: m * n,
	}
	w.BatchedWalkSlots = w.Blocks * n
	for c := 0; c < n; c++ {
		row := mm.Row(c)
		w.Entries += row.Count()
		for i := 0; i < row.NumWords(); i++ {
			if row.Word(i) != 0 {
				w.BatchedClassVisits++
			}
		}
	}
	return w
}
