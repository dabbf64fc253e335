package core

import (
	"testing"

	"cpplookup/internal/chg"
)

// populatedClasses is one more than the largest class id populatePool
// interns: the class count its pool images are checked against.
const populatedClasses = 12

// populate interns a representative payload mix and returns the cells.
func populatePool(p *Pool) []Cell {
	var cells []Cell
	cells = append(cells, p.Blue([]Def{{L: 1, V: 2}, {L: 3, V: chg.Omega}}).Cell())
	cells = append(cells, p.RedDetailed(Def{L: 4, V: 5}, []chg.ClassID{5, 6}, []chg.ClassID{5}, nil).Cell())
	cells = append(cells, p.RedDetailed(Def{L: 7, V: chg.Omega}, nil, nil, []chg.ClassID{7, 8, 9}).Cell())
	cells = append(cells, p.Fail(11).Cell())
	cells = append(cells, p.RedDetailed(Def{L: 2, V: 2}, []chg.ClassID{}, nil, nil).Cell()) // empty ≠ nil
	cells = append(cells, p.Blue([]Def{{L: 1, V: 2}, {L: 3, V: chg.Omega}}).Cell())         // dedup hit
	return cells
}

func TestPoolImageRoundTrip(t *testing.T) {
	p := NewPool()
	cells := populatePool(p)

	thawed, err := PoolFromImage(p.Image(), populatedClasses)
	if err != nil {
		t.Fatalf("PoolFromImage: %v", err)
	}
	if !EqualPayloads(p, thawed) {
		t.Fatal("thawed pool payloads differ from the source pool")
	}
	for i, c := range cells {
		if !p.View(c).Equal(thawed.View(c)) {
			t.Fatalf("cell %d: %v != %v through the thawed pool", i, p.View(c), thawed.View(c))
		}
	}
	// Empty-but-non-nil StaticSet must survive the round trip as
	// non-nil (nil-ness is part of a result's meaning).
	if ss := thawed.View(cells[4]).StaticSet(); ss == nil || len(ss) != 0 {
		t.Fatalf("empty StaticSet round-tripped as %#v", ss)
	}
}

// TestPoolImageCopyOnWritePromotion interns on top of a thawed pool:
// existing indices must stay valid, dedup must find frozen payloads,
// and genuinely new payloads must extend the space.
func TestPoolImageCopyOnWritePromotion(t *testing.T) {
	src := NewPool()
	cells := populatePool(src)
	thawed, err := PoolFromImage(src.Image(), populatedClasses)
	if err != nil {
		t.Fatalf("PoolFromImage: %v", err)
	}
	base := thawed.Len()

	// Re-interning an existing payload must dedup against the frozen
	// base, not append a duplicate.
	dup := thawed.Blue([]Def{{L: 1, V: 2}, {L: 3, V: chg.Omega}})
	if thawed.Len() != base {
		t.Fatalf("re-interning a frozen payload grew the pool: %d -> %d", base, thawed.Len())
	}
	if !dup.Equal(src.View(cells[0])) {
		t.Fatalf("deduped payload differs: %v != %v", dup, src.View(cells[0]))
	}

	// A new payload appends past the frozen base; old cells still read
	// correctly through the promoted arenas.
	fresh := thawed.Blue([]Def{{L: 42, V: 43}})
	if thawed.Len() != base+1 {
		t.Fatalf("new payload did not extend the pool: len %d, want %d", thawed.Len(), base+1)
	}
	if got := fresh.Blue(); len(got) != 1 || got[0] != (Def{L: 42, V: 43}) {
		t.Fatalf("fresh payload reads back %v", got)
	}
	for i, c := range cells {
		if !src.View(c).Equal(thawed.View(c)) {
			t.Fatalf("cell %d corrupted by copy-on-write promotion", i)
		}
	}
}

func TestPoolFromImageRejectsCorruptRecords(t *testing.T) {
	p := NewPool()
	populatePool(p)
	good := p.Image()

	cloneRecs := func() []int32 { return append([]int32(nil), good.Recs...) }
	cloneIDs := func(img *PoolImage) { img.IDs = append([]chg.ClassID(nil), img.IDs...) }
	cloneDefs := func(img *PoolImage) { img.Defs = append([]Def(nil), img.Defs...) }

	cases := []struct {
		name   string
		mutate func(img *PoolImage)
	}{
		{"stride", func(img *PoolImage) { img.Recs = img.Recs[:len(img.Recs)-1] }},
		{"kind", func(img *PoolImage) { img.Recs[recKind] = 99 }},
		{"ids-overrun", func(img *PoolImage) {
			img.Recs[1*poolRecWords+recSSLen] = int32(len(img.IDs)) + 5
		}},
		{"negative-offset", func(img *PoolImage) {
			img.Recs[1*poolRecWords+recSSOff] = -3
		}},
		{"defs-overrun", func(img *PoolImage) {
			img.Recs[recBLen] = int32(len(img.Defs)) + 1
		}},
		{"def-class", func(img *PoolImage) { img.Recs[3*poolRecWords+recL] = populatedClasses }},
		{"def-below-omega", func(img *PoolImage) { img.Recs[1*poolRecWords+recV] = -2 }},
		{"red-without-class", func(img *PoolImage) { img.Recs[1*poolRecWords+recL] = -1 }},
		{"ids-arena-class", func(img *PoolImage) {
			cloneIDs(img)
			img.IDs[len(img.IDs)-1] = populatedClasses
		}},
		{"defs-arena-class", func(img *PoolImage) {
			cloneDefs(img)
			img.Defs[0].V = -2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := PoolImage{Recs: cloneRecs(), IDs: good.IDs, Defs: good.Defs}
			tc.mutate(&img)
			if _, err := PoolFromImage(img, populatedClasses); err == nil {
				t.Fatal("corrupt image accepted")
			} else if _, ok := err.(*PoolImageError); !ok {
				t.Fatalf("want *PoolImageError, got %T: %v", err, err)
			}
		})
	}
}
