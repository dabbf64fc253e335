package image

import (
	"crypto/sha256"
	"strings"
	"unsafe"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
)

// Meta is the header-level identity of a loaded image.
type Meta struct {
	Version        uint32
	TrackPaths     bool
	StaticRule     bool
	NumClasses     int
	NumMemberNames int
	Backends       []core.SemanticsID // column order, dominance first
	Hash           [32]byte           // content hash, as verified
	FileSize       int64
}

// Image is a loaded snapshot image: a servable engine.Snapshot whose
// pool arenas and per-member cell runs alias the image bytes. A carried
// successor never reads the mapped runs: its first carry copies every
// one of them (the engine marks them adopted), and only its heap
// copies are shared onward. It does share the payload pool, whose
// arenas stay mapped until the pool's first new payload copies them to
// the heap or a compaction chains to a fresh pool. Keep the image (or
// at least don't Close it) as long as any snapshot obtained from it —
// or any carried successor sharing its pool — is in use; Close unmaps
// a mapped file.
type Image struct {
	snap    *engine.Snapshot
	meta    Meta
	release func() error // unmap, for OpenFile images; nil for Load
}

// Snapshot returns the servable snapshot. Lookups against it are
// warm-hit identical to the snapshot that was saved; cells never
// filled before the save fill lazily (into private copy-on-write
// pages when the image is mapped).
func (im *Image) Snapshot() *engine.Snapshot { return im.snap }

// Meta returns the image's header-level identity.
func (im *Image) Meta() Meta { return im.meta }

// Close releases the mapping behind an OpenFile image (a no-op for
// Load). The snapshot, its adopted copies and every carried successor
// still sharing its pool must no longer be used afterwards; a carried
// successor never reads the mapped cell runs, which its first carry
// copied.
func (im *Image) Close() error {
	if im.release == nil {
		return nil
	}
	rel := im.release
	im.release = nil
	return rel()
}

// Load validates data as a snapshot image and serves it in place.
// The work is O(header) parsing + O(file) content-hash verification +
// O(N+E+M) graph decode (chg.UnmarshalBinary) + one read-only check of
// every payload and every cell word (core.PoolFromImage, and
// engine.NewSnapshotFromParts' cell check), so that a hash-valid but
// malformed image is rejected with a *FormatError
// rather than served; the pool arenas and the cell plane are aliased,
// never decoded — no per-cell or per-payload deserialization happens,
// which is what keeps loading a large warm table cheap.
//
// data must not be mutated while the image is in use. If data is not
// 8-byte aligned (mapped files always are), one aligned copy of the
// whole buffer is made first.
func Load(data []byte) (*Image, error) {
	return load(data, nil)
}

// OpenFile memory-maps path and loads it. The mapping is private
// (copy-on-write): lazy fills after the load write to anonymous pages,
// never to the file. Close the returned image to unmap.
func OpenFile(path string) (*Image, error) {
	data, release, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	im, err := load(data, release)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, err
	}
	return im, nil
}

func load(data []byte, release func() error) (*Image, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Realign by copying once; aliased u64 views need it.
		aligned := make([]uint64, (len(data)+7)/8)
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&aligned[0])), len(data))
		copy(buf, data)
		data = buf
	}
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if err := verifyHash(data, h); err != nil {
		return nil, err
	}
	secs, err := parseSections(data, h)
	if err != nil {
		return nil, err
	}
	if h.numMembers > chg.MaxMemberNames {
		return nil, &chg.MemberSpaceError{NumMemberNames: int(h.numMembers)}
	}

	gs := secs[secGraph]
	g, err := chg.UnmarshalBinary(data[gs.off : gs.off+gs.size])
	if err != nil {
		return nil, formatErrf("graph section: %v", err)
	}
	if g.NumClasses() != int(h.numClasses) || g.NumMemberNames() != int(h.numMembers) {
		return nil, formatErrf("graph section holds %d classes and %d member names, header says %d and %d",
			g.NumClasses(), g.NumMemberNames(), h.numClasses, h.numMembers)
	}
	bs := secs[secBackends]
	var backends []core.SemanticsID
	for _, id := range strings.Split(string(data[bs.off:bs.off+bs.size]), ",") {
		backends = append(backends, core.SemanticsID(id))
	}
	if len(backends) != int(h.numColumns) {
		return nil, formatErrf("backend section lists %d backends, header says %d columns", len(backends), h.numColumns)
	}
	if backends[0] != core.SemDominance {
		return nil, formatErrf("first cell column is %q, must be %q", backends[0], core.SemDominance)
	}

	pi := core.PoolImage{
		Recs: alias[int32](data, secs[secPoolRecs]),
		IDs:  alias[chg.ClassID](data, secs[secPoolIDs]),
		Defs: alias[core.Def](data, secs[secPoolDefs]),
	}
	pool, err := core.PoolFromImage(pi, g.NumClasses())
	if err != nil {
		return nil, formatErrf("pool arenas: %v", err)
	}

	cellsSec := secs[secCells]
	if size, ok := h.cellBytes(); !ok || cellsSec.size != size {
		return nil, formatErrf("cell section holds %d bytes, want %d columns × %d cells", cellsSec.size, h.numColumns, uint64(h.numClasses)*uint64(h.numMembers))
	}
	cells := alias[uint64](data, cellsSec)
	snap, err := engine.NewSnapshotFromParts(g, pool, backends, cells, h.trackPaths(), h.staticRule())
	if err != nil {
		return nil, formatErrf("assembling snapshot: %v", err)
	}
	return &Image{
		snap: snap,
		meta: Meta{
			Version:        h.version,
			TrackPaths:     h.trackPaths(),
			StaticRule:     h.staticRule(),
			NumClasses:     int(h.numClasses),
			NumMemberNames: int(h.numMembers),
			Backends:       backends,
			Hash:           h.hash,
			FileSize:       int64(len(data)),
		},
		release: release,
	}, nil
}

// verifyHash recomputes the content hash — SHA-256 of the file with
// the hash field zeroed — and compares it to the header's.
func verifyHash(data []byte, h *header) error {
	d := sha256.New()
	d.Write(data[:hashOff])
	var zero [hashSize]byte
	d.Write(zero[:])
	d.Write(data[hashOff+hashSize:])
	var got [hashSize]byte
	d.Sum(got[:0])
	if got != h.hash {
		return &HashError{Got: got, Want: h.hash}
	}
	return nil
}

// alias serves a section's bytes as a []T without copying. Sections
// are 8-aligned within the file and the buffer base is 8-aligned (load
// realigns otherwise), so every element type the loader aliases (4- and
// 8-byte) is properly aligned. Sizes were bounds-checked by
// parseSections; element-size divisibility is the caller's contract
// with the writer and is enforced by truncating division (the hash
// check makes a genuinely torn section unreachable).
func alias[T any](data []byte, s section) []T {
	if s.size == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&data[s.off])), s.size/uint64(unsafe.Sizeof(zero)))
}
