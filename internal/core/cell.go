package core

import (
	"cpplookup/internal/chg"
)

// Cell is the packed, word-sized form of one lookup result — the
// storage representation behind every Result view. A cell is a single
// uint64, so a memo is flat words instead of a slice of pointers to
// heap structs — a Table row is a []Cell, and a lazy cache holds one
// []uint64 run per member name that FillRun fills with sync/atomic word
// operations: a warm cache hit is one array index and one word load,
// with no pointer chase and no per-result allocation.
//
// Layout (bit 63 = most significant):
//
//	bits 62–63  tag: 0 = zero value (reads as Undefined; Encode never
//	            produces it, so engines can use the all-zero word to
//	            mean "cell not filled yet")
//	            1 = Undefined
//	            2 = inline Red: Def fits the word, no payload
//	            3 = pooled: payload index into the cell's Pool
//	bits 60–61  (pooled only) the result Kind, so Kind() never has to
//	            touch the pool
//	bits 31–61  (inline Red) Def.L, biased by +1 so Ω (-1) packs as 0
//	bits  0–30  (inline Red) Def.V, biased likewise
//	bits  0–31  (pooled) payload index
//
// The overwhelmingly common results — Undefined, and Red with no
// static set and no tracked path — encode inline. Rare payloads
// (Blue sets, StaticSet/StaticRed, paths) are interned in a Pool and
// referenced by index; many classes share the same Blue set or static
// coverage, so interning also deduplicates storage across the table.
type Cell uint64

const (
	cellTagZero   uint64 = 0 // zero value / absent
	cellTagUndef  uint64 = 1
	cellTagRed    uint64 = 2
	cellTagPooled uint64 = 3

	cellTagShift  = 62
	cellKindShift = 60
	cellLShift    = 31
	cellFieldMask = 1<<31 - 1 // one biased class id
	cellIndexMask = 1<<32 - 1 // pooled payload index
)

// cellUndefined is the canonical packed Undefined result.
const cellUndefined = Cell(cellTagUndef << cellTagShift)

// biasID packs a ClassID (or Ω = -1) into a 31-bit field, biased by
// +1. The only unrepresentable id is 1<<31-2's successor — a graph
// that large cannot exist in memory, but Encode stays total by
// falling back to a pooled payload when this reports false.
func biasID(v chg.ClassID) (uint64, bool) {
	b := int64(v) + 1
	if b < 0 || b > cellFieldMask {
		return 0, false
	}
	return uint64(b), true
}

func unbiasID(f uint64) chg.ClassID {
	return chg.ClassID(int64(f) - 1)
}

// cellRed packs a plain red Def inline; ok is false when an id does
// not fit (the caller then interns a payload instead).
func cellRed(d Def) (Cell, bool) {
	lf, okL := biasID(d.L)
	vf, okV := biasID(d.V)
	if !okL || !okV {
		return 0, false
	}
	return Cell(cellTagRed<<cellTagShift | lf<<cellLShift | vf), true
}

// cellPooled packs a payload reference, keeping the kind in the cell
// so Kind() is pool-free.
func cellPooled(kind Kind, idx uint32) Cell {
	return Cell(cellTagPooled<<cellTagShift | uint64(kind)<<cellKindShift | uint64(idx))
}

func (c Cell) tag() uint64 { return uint64(c) >> cellTagShift }

// Zero reports whether the cell is the all-zero "not filled" word.
// Encode/intern never produce it, which is what lets a concurrent
// cache use plain zeroed storage as its empty state.
func (c Cell) Zero() bool { return c == 0 }

// Kind returns the result kind packed in the cell, without consulting
// any pool. The zero cell reads as Undefined, matching the zero
// Result.
func (c Cell) Kind() Kind {
	switch c.tag() {
	case cellTagRed:
		return RedKind
	case cellTagPooled:
		return Kind(uint64(c) >> cellKindShift & 3)
	default:
		return Undefined
	}
}

func (c Cell) poolIndex() uint32 { return uint32(uint64(c) & cellIndexMask) }

func (c Cell) inlineDef() Def {
	return Def{
		L: unbiasID(uint64(c) >> cellLShift & cellFieldMask),
		V: unbiasID(uint64(c) & cellFieldMask),
	}
}
