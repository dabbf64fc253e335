package image

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	wi, gi := want.Semantics(), got.Semantics()
	if len(wi) != len(gi) {
		t.Fatalf("column count drift: %d -> %d", len(wi), len(gi))
	}
	size := gw.NumClasses() * gw.NumMemberNames()
	wc, gc := make([]uint64, len(wi)*size), make([]uint64, len(gi)*size)
	want.CopyCells(wc, want.Pool().Image())
	got.CopyCells(gc, got.Pool().Image())
	for i := range wi {
		if wi[i] != gi[i] {
			t.Fatalf("column %d backend drift: %q -> %q", i, wi[i], gi[i])
		}
		for j := i * size; j < (i+1)*size; j++ {
			if wc[j] != gc[j] {
				t.Fatalf("column %q cell %d: packed word %#x loaded as %#x",
					wi[i], j-i*size, wc[j], gc[j])
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
				gs := sectionOf(t, data, secGraph)
				section := data[gs.off : gs.off+gs.size]
				if _, err := chg.UnmarshalBinary(section); err != nil {
					t.Fatalf("graph section does not decode: %v", err)
				}
				if loaded, err := im.Snapshot().Graph().MarshalBinary(); err != nil || !bytes.Equal(loaded, section) {
					t.Fatalf("loaded graph encodes as %d bytes (%v), not as its %d-byte graph section", len(loaded), err, len(section))
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
	assertCachedEntries(t, "after the load", im.Snapshot())
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
			assertCachedEntries(t, "after lazy fills into mapped runs", im.Snapshot())
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
		// Version 1 stored the same cell words class-major, and version
		// 2 the hierarchy as name tables and topology words; reading
		// either as version 3 would serve wrong answers, so both are
		// rejected.
		for _, v := range []uint32{1, 2, Version + 7} {
			b := clone()
			nativeOrder.PutUint32(b[8:], v)
			_, err := Load(b)
			var ve *VersionError
			if !errors.As(err, &ve) || *ve != (VersionError{Got: v, Want: 3}) {
				t.Fatalf("version %d: got %v, want *VersionError{Got: %d, Want: 3}", v, err, v)
			}
		}
	})
	for name, patch := range map[string]func(b []byte){
		// The graph section's magic, so that the section does not decode.
		"graph-section-garbage": func(b []byte) { b[sectionOf(t, b, secGraph).off] ^= 0xFF },
		// The header's class count, so that a graph that decodes holds
		// one class fewer than the header says.
		"graph-counts-disagree": func(b []byte) { nativeOrder.PutUint32(b[20:], nativeOrder.Uint32(b[20:])+1) },
	} {
		t.Run(name, func(t *testing.T) {
			b := clone()
			patch(b)
			_, err := Load(restamped(b))
			var fe *FormatError
			if !errors.As(err, &fe) || !strings.Contains(fe.Reason, "graph section") {
				t.Fatalf("got %v, want a *FormatError about the graph section", err)
			}
		})
	}
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

// TestImageRejectsWrappingCellCounts loads a crafted image whose
// header counts make the cell section's size, columns × classes ×
// member names × 8 bytes, wrap to 0 in 64 bits: 2^21 backends (the
// first dominance, the rest empty), 2^20 classes and 2^20 member
// names, over an empty graph section, empty pool arenas and an empty
// cell section, under a valid hash. The member-name count is checked
// before any section is read, so Load must refuse it with a
// *chg.MemberSpaceError rather than slice past the cell section.
func TestImageRejectsWrappingCellCounts(t *testing.T) {
	const numC, numM, numCols = 1 << 20, 1 << 20, 1 << 21
	empty, err := chg.NewBuilder().MustBuild().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := newImageBuf()
	w.beginSection(secGraph)
	w.b = append(w.b, empty...)
	w.beginSection(secBackends)
	w.b = append(w.b, string(core.SemDominance)+strings.Repeat(",", numCols-1)...)
	for _, id := range []uint32{secPoolRecs, secPoolIDs, secPoolDefs, secCells} {
		w.beginSection(id)
	}
	data := w.finish(header{
		version:      Version,
		numClasses:   numC,
		numMembers:   numM,
		numColumns:   numCols,
		sectionCount: numSections,
	})
	_, err = Load(data)
	var mse *chg.MemberSpaceError
	if !errors.As(err, &mse) || mse.NumMemberNames != numM {
		t.Fatalf("%d-byte image: got %v, want *chg.MemberSpaceError for %d names", len(data), err, numM)
	}
}

// TestCellBytesDetectsWrap pins the cell-section size check on counts
// no test image could reach, including products that wrap with member
// names within chg.MaxMemberNames.
func TestCellBytesDetectsWrap(t *testing.T) {
	for _, tc := range []struct {
		cols, classes, members uint32
		size                   uint64
		ok                     bool
	}{
		{3, 9, 2, 3 * 9 * 2 * 8, true},
		{1, math.MaxUint32, chg.MaxMemberNames, math.MaxUint32 * chg.MaxMemberNames * 8, true},
		{1 << 21, 1 << 20, 1 << 20, 0, false},
		{1 << 23, 1 << 22, chg.MaxMemberNames, 0, false},
		{1<<23 + 1, 1 << 22, chg.MaxMemberNames, 0, false}, // wraps to 2^41, not 0
		{math.MaxUint32, math.MaxUint32, chg.MaxMemberNames, 0, false},
	} {
		h := header{numColumns: tc.cols, numClasses: tc.classes, numMembers: tc.members}
		size, ok := h.cellBytes()
		if ok != tc.ok || ok && size != tc.size {
			t.Errorf("%d columns × %d classes × %d names: cellBytes = %d, %v; want %d, %v",
				tc.cols, tc.classes, tc.members, size, ok, tc.size, tc.ok)
		}
	}
}

// TestWarmImageDeterministic pins that a warmed snapshot's image is a
// pure function of the hierarchy: two fresh snapshots warmed by
// WarmAll intern their pooled payloads in the same order, so their
// images are byte-identical.
func TestWarmImageDeterministic(t *testing.T) {
	g := hiergen.SparseMembers(200, 1000, 3, 7)
	var first []byte
	for i := 0; i < 2; i++ {
		data, err := Bytes(warmSnapshot(g, core.WithSemantics(allBackends...)))
		if err != nil {
			t.Fatalf("Bytes: %v", err)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("two warm saves of one hierarchy differ: %d and %d bytes, SHA-256 %x and %x",
				len(first), len(data), sha256.Sum256(first), sha256.Sum256(data))
		}
	}
}

// TestBytesAllocatesOnce pins that a save copies the cells once,
// straight into the image: the bytes Bytes allocates stay within 1.1
// times the image it returns, on a warmed three-backend snapshot whose
// cells are nearly all of its image.
func TestBytesAllocatesOnce(t *testing.T) {
	snap := warmSnapshot(hiergen.SparseMembers(400, 2000, 3, 7), core.WithSemantics(allBackends...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := Bytes(snap)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.1*float64(len(data)) {
		t.Fatalf("Bytes allocated %d bytes for a %d-byte image (%.2f×), want at most 1.1×",
			alloc, len(data), float64(alloc)/float64(len(data)))
	}
}

// TestBytesUnderConcurrentFills saves a snapshot while goroutines fill
// its cells through LookupSem and WarmAll. Every save must load, and
// every cell of every loaded image must equal a cold table's: a word
// whose payload the save's pool image lacks is saved unfilled and
// refills, never served dangling.
func TestBytesUnderConcurrentFills(t *testing.T) {
	g := hiergen.SparseMembers(60, 300, 3, 7)
	opts := []core.Option{core.WithSemantics(allBackends...), core.WithStaticRule()}
	snap := engine.NewSnapshot(g, opts...)
	ids := snap.Semantics()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				snap.LookupSem(ids[rng.Intn(len(ids))], chg.ClassID(rng.Intn(g.NumClasses())), chg.MemberID(rng.Intn(g.NumMemberNames())))
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		snap.WarmAll()
	}()
	var images [][]byte
	for i := 0; i < 4; i++ {
		data, err := Bytes(snap)
		if err != nil {
			t.Error(err)
			break
		}
		images = append(images, data)
	}
	stop.Store(true)
	wg.Wait()

	cold := engine.NewSnapshot(g, opts...)
	for i, data := range images {
		im, err := Load(data)
		if err != nil {
			t.Fatalf("save %d: Load: %v", i, err)
		}
		for _, id := range ids {
			table, _ := cold.TableSem(id)
			for c := 0; c < g.NumClasses(); c++ {
				for m := 0; m < g.NumMemberNames(); m++ {
					want := table.Lookup(chg.ClassID(c), chg.MemberID(m))
					if got, _ := im.Snapshot().LookupSem(id, chg.ClassID(c), chg.MemberID(m)); !got.Equal(want) {
						t.Fatalf("save %d: %s %s::%s = %s, want %s", i, id,
							g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)), got.Format(g), want.Format(g))
					}
				}
			}
		}
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
