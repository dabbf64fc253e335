package image

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// allBackends is the full backend set every round-trip test serves.
var allBackends = []core.SemanticsID{core.SemC3, core.SemGxx}

func warmSnapshot(g *chg.Graph, opts ...core.Option) *engine.Snapshot {
	s := engine.NewSnapshot(g, opts...)
	s.WarmAll()
	return s
}

// assertSameWarmState pins a loaded snapshot cell-for-cell against the
// snapshot it was saved from: identical name tables, identical packed
// words in every backend column, and result-equal lookups everywhere.
func assertSameWarmState(t *testing.T, want, got *engine.Snapshot) {
	t.Helper()
	gw, gg := want.Graph(), got.Graph()
	if gw.NumClasses() != gg.NumClasses() || gw.NumMemberNames() != gg.NumMemberNames() {
		t.Fatalf("shape drift: %dx%d loaded as %dx%d",
			gw.NumClasses(), gw.NumMemberNames(), gg.NumClasses(), gg.NumMemberNames())
	}
	for c := 0; c < gw.NumClasses(); c++ {
		if gw.Name(chg.ClassID(c)) != gg.Name(chg.ClassID(c)) {
			t.Fatalf("class %d renamed: %q -> %q", c, gw.Name(chg.ClassID(c)), gg.Name(chg.ClassID(c)))
		}
	}
	for m := 0; m < gw.NumMemberNames(); m++ {
		if gw.MemberName(chg.MemberID(m)) != gg.MemberName(chg.MemberID(m)) {
			t.Fatalf("member id %d renamed: %q -> %q", m, gw.MemberName(chg.MemberID(m)), gg.MemberName(chg.MemberID(m)))
		}
	}
	wc, gc := want.CopyColumns(), got.CopyColumns()
	if len(wc) != len(gc) {
		t.Fatalf("column count drift: %d -> %d", len(wc), len(gc))
	}
	for i := range wc {
		if wc[i].ID != gc[i].ID {
			t.Fatalf("column %d backend drift: %q -> %q", i, wc[i].ID, gc[i].ID)
		}
		for j := range wc[i].Cells {
			if wc[i].Cells[j] != gc[i].Cells[j] {
				t.Fatalf("column %q cell %d: packed word %#x loaded as %#x",
					wc[i].ID, j, wc[i].Cells[j], gc[i].Cells[j])
			}
		}
	}
	for _, id := range want.Semantics() {
		for c := 0; c < gw.NumClasses(); c++ {
			for m := 0; m < gw.NumMemberNames(); m++ {
				rw, _ := want.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				rg, ok := got.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				if !ok {
					t.Fatalf("loaded snapshot does not serve %q", id)
				}
				if !rw.Equal(rg) {
					t.Fatalf("%s: lookup[%d,%d]: %v loaded as %v", id, c, m, rw, rg)
				}
			}
		}
	}
}

// TestImageRoundTripRandom is the quick/fuzz round trip the issue asks
// for: random hierarchies under every flag combination, written and
// loaded, compared cell-for-cell and payload-for-payload under all
// three backends.
func TestImageRoundTripRandom(t *testing.T) {
	seeds := []int64{1, 7, 23, 99, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, tc := range []struct {
			name                   string
			trackPaths, staticRule bool
		}{
			{"plain", false, false},
			{"paths", true, false},
			{"static", false, true},
			{"paths+static", true, true},
		} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				g := hiergen.Random(hiergen.RandomConfig{
					Classes: 60, MaxBases: 3, VirtualProb: 0.3,
					MemberNames: 12, MemberProb: 0.25, StaticProb: 0.3,
					Seed: seed,
				})
				opts := []core.Option{core.WithSemantics(allBackends...)}
				if tc.trackPaths {
					opts = append(opts, core.WithTrackPaths())
				}
				if tc.staticRule {
					opts = append(opts, core.WithStaticRule())
				}
				snap := warmSnapshot(g, opts...)
				data, err := Bytes(snap)
				if err != nil {
					t.Fatalf("Bytes: %v", err)
				}
				im, err := Load(data)
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				meta := im.Meta()
				if meta.TrackPaths != tc.trackPaths || meta.StaticRule != tc.staticRule {
					t.Fatalf("meta flags drift: %+v", meta)
				}
				if !core.EqualPayloads(snap.Pool(), im.Snapshot().Pool()) {
					t.Fatal("pool payloads drifted through the image")
				}
				assertSameWarmState(t, snap, im.Snapshot())
			})
		}
	}
}

func TestImageFileMmapRoundTrip(t *testing.T) {
	g := hiergen.Figure9()
	snap := warmSnapshot(g, core.WithSemantics(allBackends...), core.WithStaticRule())
	path := filepath.Join(t.TempDir(), "fig9.img")
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	im, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer im.Close()
	if got := im.Meta().Backends; len(got) != 3 || got[0] != core.SemDominance {
		t.Fatalf("meta backends = %v", got)
	}
	assertSameWarmState(t, snap, im.Snapshot())
	if err := im.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestImageLazyFillAfterLoad saves a half-warm snapshot and checks the
// loaded one computes the missing cells on demand — including when the
// image is memory-mapped, where the fill's atomic store must land in
// the mapping's private pages.
func TestImageLazyFillAfterLoad(t *testing.T) {
	g := hiergen.Realistic(4, 3)
	src := engine.NewSnapshot(g, core.WithSemantics(allBackends...))
	// Warm only class 0's row; everything else stays a zero word.
	for m := 0; m < g.NumMemberNames(); m++ {
		src.Lookup(0, chg.MemberID(m))
	}
	path := filepath.Join(t.TempDir(), "half.img")
	if err := WriteFile(path, src); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	im, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer im.Close()
	oracle := engine.NewSnapshot(g, core.WithSemantics(allBackends...))
	for _, id := range oracle.Semantics() {
		for c := 0; c < g.NumClasses(); c++ {
			for m := 0; m < g.NumMemberNames(); m++ {
				want, _ := oracle.LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				got, _ := im.Snapshot().LookupSem(id, chg.ClassID(c), chg.MemberID(m))
				if !want.Equal(got) {
					t.Fatalf("%s: lazy fill of [%d,%d] got %v, want %v", id, c, m, got, want)
				}
			}
		}
	}
}

func TestImageTypedErrors(t *testing.T) {
	snap := warmSnapshot(hiergen.Figure1())
	good, err := Bytes(snap)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	clone := func() []byte { return append([]byte(nil), good...) }

	t.Run("bad-magic", func(t *testing.T) {
		b := clone()
		b[0] ^= 0xFF
		if _, err := Load(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		// Version 1 stored the same cell words class-major; reading one
		// as member-major would serve wrong answers, so it is rejected.
		for _, v := range []uint32{1, Version + 7} {
			b := clone()
			nativeOrder.PutUint32(b[8:], v)
			_, err := Load(b)
			var ve *VersionError
			if !errors.As(err, &ve) || *ve != (VersionError{Got: v, Want: 2}) {
				t.Fatalf("version %d: got %v, want *VersionError{Got: %d, Want: 2}", v, err, v)
			}
		}
	})
	t.Run("byte-order", func(t *testing.T) {
		b := clone()
		bom := nativeOrder.Uint32(b[16:])
		swapped := bom<<24 | bom<<8&0xFF0000 | bom>>8&0xFF00 | bom>>24
		nativeOrder.PutUint32(b[16:], swapped)
		if _, err := Load(b); !errors.Is(err, ErrByteOrder) {
			t.Fatalf("got %v, want ErrByteOrder", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		var fe *FormatError
		if _, err := Load(good[:20]); !errors.As(err, &fe) {
			t.Fatalf("got %v, want *FormatError", err)
		}
	})
	t.Run("corrupt-body", func(t *testing.T) {
		// Flip one byte in the middle of the body: the content hash
		// must reject it regardless of which section it lands in.
		b := clone()
		b[len(b)/2] ^= 0x01
		_, err := Load(b)
		var he *HashError
		if !errors.As(err, &he) {
			t.Fatalf("got %v, want *HashError", err)
		}
	})
	t.Run("every-byte-detected", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		// Corrupting ANY single byte must fail the load one way or
		// another (hash for body bytes, header validation for the
		// prefix, and the hash field itself breaks the hash check).
		b := clone()
		for i := range b {
			b[i] ^= 0x5A
			if _, err := Load(b); err == nil {
				t.Fatalf("flipping byte %d of %d went undetected", i, len(b))
			}
			b[i] ^= 0x5A
		}
	})
}

func TestImageRejectsOversizedMemberSpace(t *testing.T) {
	b := chg.NewBuilder()
	c := b.Class("Wide")
	for i := 0; i <= chg.MaxMemberNames; i++ {
		b.Member(c, chg.Member{Name: fmt.Sprintf("m%d", i), Kind: chg.Field})
	}
	g := b.MustBuild()
	var mse *chg.MemberSpaceError
	if _, err := Bytes(engine.NewSnapshot(g)); !errors.As(err, &mse) {
		t.Fatalf("got %v, want *chg.MemberSpaceError", err)
	}
	if _, err := g.MarshalBinary(); !errors.As(err, &mse) {
		t.Fatalf("gob encode: got %v, want *chg.MemberSpaceError", err)
	}
	if err := g.WriteJSON(&bytes.Buffer{}); !errors.As(err, &mse) {
		t.Fatalf("json encode: got %v, want *chg.MemberSpaceError", err)
	}
}

// TestImageUnalignedLoad feeds Load a deliberately misaligned buffer;
// the loader must realign (one copy) rather than alias misaligned
// words.
func TestImageUnalignedLoad(t *testing.T) {
	snap := warmSnapshot(hiergen.Figure2(), core.WithSemantics(allBackends...))
	data, err := Bytes(snap)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	backing := make([]byte, len(data)+8)
	for off := 1; off < 8; off++ {
		shifted := backing[off : off+len(data)]
		copy(shifted, data)
		im, err := Load(shifted)
		if err != nil {
			t.Fatalf("offset %d: Load: %v", off, err)
		}
		assertSameWarmState(t, snap, im.Snapshot())
	}
}

func writeTempImage(t *testing.T, s *engine.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.img")
	if err := WriteFile(path, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// TestImageEmptyishGraphs rounds minimal shapes through the codec:
// a single class with no members exercises every zero-length section.
func TestImageEmptyishGraphs(t *testing.T) {
	b := chg.NewBuilder()
	b.Class("Lonely")
	g := b.MustBuild()
	snap := warmSnapshot(g)
	path := writeTempImage(t, snap)
	im, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer im.Close()
	if im.Meta().NumClasses != 1 || im.Meta().NumMemberNames != 0 {
		t.Fatalf("meta = %+v", im.Meta())
	}
	assertSameWarmState(t, snap, im.Snapshot())
}
