package image

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// restamped returns a copy of data under a valid content hash, so that
// a mutated image reaches the loader's structural checks.
func restamped(data []byte) []byte {
	b := append([]byte(nil), data...)
	if len(b) >= headerSize {
		stampHash(b)
	}
	return b
}

// sectionOf returns section id of the valid image data.
func sectionOf(t testing.TB, data []byte, id uint32) section {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parseSections(data, h)
	if err != nil {
		t.Fatal(err)
	}
	return secs[id]
}

// malformedImages returns hash-valid images that the loader must
// reject: three of Figure 1, each one word away from an image Bytes
// wrote, whose lookups would otherwise read past the pool or the class
// table, and one of a two-class chain, one word away from a cold image
// of it, whose only filled cell is a red result with an empty static
// set, which a fill reads a first abstraction from.
func malformedImages(t testing.TB) map[string][]byte {
	g := hiergen.Figure1()
	cold, err := Bytes(engine.NewSnapshot(g))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Bytes(warmSnapshot(g))
	if err != nil {
		t.Fatal(err)
	}
	if recs := sectionOf(t, cold, secPoolRecs); recs.size != 0 {
		t.Fatalf("a cold Figure 1 image holds %d bytes of payload records, want none", recs.size)
	}
	p := core.NewPool()
	for c := chg.ClassID(0); c < 7; c++ {
		p.Fail(c)
	}
	blue7 := uint64(p.Blue([]core.Def{{L: chg.Omega, V: chg.Omega}}).Cell())
	red999 := uint64(p.Red(core.Def{L: 999, V: chg.Omega}).Cell())

	pooled := restamped(cold)
	nativeOrder.PutUint64(pooled[sectionOf(t, pooled, secCells).off:], blue7)
	inline := restamped(cold)
	nativeOrder.PutUint64(inline[sectionOf(t, inline, secCells).off:], red999)
	arena := restamped(warm)
	defs := sectionOf(t, arena, secPoolDefs)
	if defs.size != 8 {
		t.Fatalf("a warm Figure 1 image holds %d bytes of Defs, want one Def", defs.size)
	}
	nativeOrder.PutUint32(arena[defs.off:], 999) // the Def's L

	b := chg.NewBuilder()
	base := b.Class("A")
	b.Base(b.Class("B"), base, chg.NonVirtual)
	b.Method(base, "m")
	chain := b.MustBuild()
	pool := core.NewPool()
	red := uint64(pool.RedDetailed(core.Def{L: base, V: chg.Omega}, []chg.ClassID{}, nil, nil).Cell())
	emptySet, err := Bytes(engine.NewSnapshot(chain, core.WithPool(pool)))
	if err != nil {
		t.Fatal(err)
	}
	nativeOrder.PutUint64(emptySet[sectionOf(t, emptySet, secCells).off:], red)
	return map[string][]byte{
		"pooled-cell-past-empty-pool": restamped(pooled),
		"inline-red-class-999":        restamped(inline),
		"blue-def-class-999":          restamped(arena),
		"red-empty-static-set":        restamped(emptySet),
	}
}

// TestLoadRejectsMalformedCells loads hash-valid images whose cells or
// payloads name a payload or class that does not exist. Each must be
// rejected with a *FormatError: served, formatting the bad cell would
// panic.
func TestLoadRejectsMalformedCells(t *testing.T) {
	for name, data := range malformedImages(t) {
		t.Run(name, func(t *testing.T) {
			im, err := Load(data)
			if err == nil {
				formatEveryCell(im.Snapshot())
				t.Fatal("loaded, want *FormatError")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("got %T %v, want *FormatError", err, err)
			}
		})
	}
}

// FuzzLoadImage feeds the loader mutated images, re-stamping the
// content hash so that every mutation reaches the structural checks.
// Each input must either fail with one of the loader's typed errors or
// load into a snapshot whose every cell, under every backend it
// serves, looks up and formats without a panic.
func FuzzLoadImage(f *testing.F) {
	paths, err := filepath.Glob("../cli/testdata/*.cpp")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed sources: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		unit, err := sema.AnalyzeSource(string(src))
		if err != nil {
			f.Fatal(err)
		}
		data, err := Bytes(warmSnapshot(unit.Graph, core.WithSemantics(allBackends...)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range malformedImages(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Load(restamped(data))
		if err != nil {
			var fe *FormatError
			var he *HashError
			var ve *VersionError
			var mse *chg.MemberSpaceError
			if !errors.As(err, &fe) && !errors.As(err, &he) && !errors.As(err, &ve) && !errors.As(err, &mse) &&
				!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrByteOrder) {
				t.Fatalf("untyped load error %T: %v", err, err)
			}
			return
		}
		formatEveryCell(im.Snapshot())
	})
}

// formatEveryCell looks up and formats every cell of snap under every
// backend it serves.
func formatEveryCell(snap *engine.Snapshot) {
	g := snap.Graph()
	for _, id := range snap.Semantics() {
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				r, _ := snap.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				_ = r.Format(g)
			}
		}
	}
}
