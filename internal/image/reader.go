package image

import (
	"crypto/sha256"
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
// one of them (they carry no count of published cells), and only its
// heap copies are shared onward. It does share the payload pool, whose
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
// O(N+E+M) graph rebuild + one read-only check of every payload and
// every cell word (core.PoolFromImage, core.CheckCells), so that a
// hash-valid but malformed image is rejected with a *FormatError
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

	classNames, err := readStringTable(data, secs[secClassNames], "class-name table")
	if err != nil {
		return nil, err
	}
	memberNames, err := readStringTable(data, secs[secMemberNames], "member-name table")
	if err != nil {
		return nil, err
	}
	backendNames, err := readStringTable(data, secs[secBackends], "backend table")
	if err != nil {
		return nil, err
	}
	if len(classNames) != int(h.numClasses) {
		return nil, formatErrf("class-name table has %d entries, header says %d", len(classNames), h.numClasses)
	}
	if len(memberNames) != int(h.numMembers) {
		return nil, formatErrf("member-name table has %d entries, header says %d", len(memberNames), h.numMembers)
	}
	if len(backendNames) != int(h.numColumns) || len(backendNames) == 0 {
		return nil, formatErrf("backend table has %d entries, header says %d columns", len(backendNames), h.numColumns)
	}
	if backendNames[0] != string(core.SemDominance) {
		return nil, formatErrf("first cell column is %q, must be %q", backendNames[0], core.SemDominance)
	}

	g, err := rebuildGraph(data, secs[secTopology], classNames, memberNames)
	if err != nil {
		return nil, err
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
	if err := core.CheckCells(cells, pi, g.NumClasses()); err != nil {
		return nil, formatErrf("cell section: %v", err)
	}
	backends := make([]core.SemanticsID, len(backendNames))
	for i, n := range backendNames {
		backends[i] = core.SemanticsID(n)
	}
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

// readStringTable decodes a u32-count, u32-lengths, blob section.
func readStringTable(data []byte, s section, what string) ([]string, error) {
	sec := data[s.off : s.off+s.size]
	if len(sec) < 4 {
		return nil, formatErrf("%s shorter than its count field", what)
	}
	n := int(nativeOrder.Uint32(sec))
	if n < 0 || 4+4*int64(n) > int64(len(sec)) {
		return nil, formatErrf("%s claims %d entries in %d bytes", what, n, len(sec))
	}
	out := make([]string, n)
	blob := 4 + 4*n
	for i := 0; i < n; i++ {
		l := int(nativeOrder.Uint32(sec[4+4*i:]))
		if l < 0 || blob+l > len(sec) {
			return nil, formatErrf("%s entry %d overruns the section", what, i)
		}
		out[i] = string(sec[blob : blob+l])
		blob += l
	}
	return out, nil
}

// rebuildGraph replays the topology section through chg.Builder —
// member names pre-interned in id order first, so the rebuilt graph's
// member ids (which every stored cell is indexed by) match the writer's
// exactly; class ids match because classes are created in id order.
// Builder.Build re-validates the hierarchy (acyclicity, duplicate
// bases/members) and recomputes the closures, so a structurally bad
// topology is rejected, not served.
func rebuildGraph(data []byte, s section, classNames, memberNames []string) (*chg.Graph, error) {
	b := chg.NewBuilder()
	for i, name := range memberNames {
		if b.MemberName(name) != chg.MemberID(i) {
			return nil, formatErrf("member-name table has a duplicate at id %d (%q)", i, name)
		}
	}
	for i, name := range classNames {
		if b.Class(name) != chg.ClassID(i) {
			return nil, formatErrf("class-name table has a duplicate at id %d (%q)", i, name)
		}
	}
	sec := data[s.off : s.off+s.size]
	if len(sec)%4 != 0 {
		return nil, formatErrf("topology section size %d is not a multiple of 4", len(sec))
	}
	pos := 0
	next := func() (uint32, bool) {
		if pos+4 > len(sec) {
			return 0, false
		}
		v := nativeOrder.Uint32(sec[pos:])
		pos += 4
		return v, true
	}
	for c := range classNames {
		nb, ok1 := next()
		nm, ok2 := next()
		if !ok1 || !ok2 {
			return nil, formatErrf("topology truncated at class %d", c)
		}
		for i := uint32(0); i < nb; i++ {
			word, ok := next()
			if !ok {
				return nil, formatErrf("topology truncated in class %d's bases", c)
			}
			base := chg.ClassID(word >> 1)
			if int(base) >= len(classNames) {
				return nil, formatErrf("class %d inherits from out-of-range class %d", c, base)
			}
			kind := chg.NonVirtual
			if word&1 != 0 {
				kind = chg.Virtual
			}
			b.Base(chg.ClassID(c), base, kind)
		}
		for i := uint32(0); i < nm; i++ {
			word, ok := next()
			if !ok {
				return nil, formatErrf("topology truncated in class %d's members", c)
			}
			mid := int(word & 0xFFFF)
			if mid >= len(memberNames) {
				return nil, formatErrf("class %d declares out-of-range member id %d", c, mid)
			}
			kind := chg.MemberKind(word >> 16 & 0x3)
			b.Member(chg.ClassID(c), chg.Member{
				Name:    memberNames[mid],
				Kind:    kind,
				Static:  word&(1<<18) != 0,
				Virtual: word&(1<<19) != 0,
			})
		}
	}
	if pos != len(sec) {
		return nil, formatErrf("topology has %d trailing bytes", len(sec)-pos)
	}
	g, err := b.Build()
	if err != nil {
		return nil, formatErrf("rebuilding graph: %v", err)
	}
	return g, nil
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
