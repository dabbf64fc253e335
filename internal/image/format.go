// Package image persists a warm engine.Snapshot — hierarchy, payload
// pool, and every resolution backend's packed-cell cache column — as a
// single relocatable flat-buffer file, and serves a loaded file
// without deserializing a single cell.
//
// Everything position-dependent in the snapshot stack is already
// integer-indexed (class ids, member ids, pool payload indices,
// offset-based pool arenas), so the on-disk form is the in-memory
// form: the loader validates the header, checks the content hash,
// decodes the (small) graph section with chg.UnmarshalBinary, which
// keeps every class and member id, and then *aliases* the pool arenas
// and cell columns straight out of the mapped bytes. A warm lookup
// against a mapped image is the same one atomic word load it is
// against a heap snapshot; cells never filled before the save fill
// lazily on first miss, with the atomic store landing in the mapping's
// private copy-on-write pages.
//
// # File layout (version 3)
//
//	offset  size  field
//	     0     8  magic "cppLkImg"
//	     8     4  format version (3)
//	    12     4  flags: bit0 TrackPaths, bit1 StaticRule
//	    16     4  byte-order marker 0x01020304, written natively
//	    20     4  number of classes
//	    24     4  number of member names
//	    28     4  number of cell columns (resolution backends)
//	    32     4  section count (6)
//	    36     4  reserved (0)
//	    40    32  SHA-256 of the whole file with this field zeroed
//	    72   24n  section table: {id u32, reserved u32, off u64, size u64}
//	     …        sections, each 8-byte aligned
//
// Sections: the graph (chg.Graph.MarshalBinary's bytes: names,
// bases and declarations, member ids in 16 bits — see
// chg.MaxMemberNames), the backend ids (core.SemanticsID, column
// order, comma-separated), the three pool arenas (records / class-id
// arena / def arena), and the cell columns (dominance first, each
// NumClasses×NumMemberNames u64 words). Cell columns are member-major,
// the engine's in-memory layout: member m's NumClasses words are
// contiguous from m·NumClasses.
//
// # Versioning and portability
//
// The version field gates layout: readers accept exactly the versions
// they know (currently 3) and reject anything else with a
// *VersionError — there is no in-place migration, a stale image is
// simply rebuilt from source. Integers outside the graph section are
// stored in the writing machine's byte order so that loading can
// alias rather than decode; the byte-order marker makes a cross-endian
// load fail fast with ErrByteOrder instead of serving garbage. Images
// are a warm-start cache, not an interchange format — chg's binary and
// JSON forms remain the portable ones.
package image

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

const (
	// Magic identifies a snapshot image file.
	Magic = "cppLkImg"
	// Version is the current format version.
	Version uint32 = 3

	byteOrderMark uint32 = 0x01020304

	flagTrackPaths uint32 = 1 << 0
	flagStaticRule uint32 = 1 << 1

	headerSize       = 72
	hashOff          = 40
	hashSize         = 32
	sectionEntrySize = 24
)

// Section ids, in file order.
const (
	secGraph    uint32 = 1 // chg.Graph.MarshalBinary (pins class and member ids on load)
	secBackends uint32 = 2 // core.SemanticsID of each column, comma-separated, column order
	secPoolRecs uint32 = 3 // []int32 payload records (core.PoolImage.Recs)
	secPoolIDs  uint32 = 4 // []chg.ClassID arena (core.PoolImage.IDs)
	secPoolDefs uint32 = 5 // []core.Def arena (core.PoolImage.Defs)
	secCells    uint32 = 6 // numColumns × numMemberNames × numClasses u64 cells
)

const numSections = 6

// nativeOrder is the running machine's byte order; images are written
// and aliased in it.
var nativeOrder = func() binary.ByteOrder {
	var probe [2]byte
	*(*uint16)(unsafe.Pointer(&probe[0])) = 0x0102
	if probe[0] == 0x02 {
		return binary.LittleEndian
	}
	return binary.BigEndian
}()

// ErrBadMagic reports that the file is not a snapshot image at all.
var ErrBadMagic = errors.New("image: not a snapshot image (bad magic)")

// ErrByteOrder reports an image written on a machine of the opposite
// endianness; such images cannot be served zero-copy and are rejected.
var ErrByteOrder = errors.New("image: byte-order mismatch (image written on a different-endian machine)")

// VersionError reports an image whose format version this reader does
// not understand. Stale images are rebuilt, not migrated.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("image: unsupported format version %d (reader supports %d)", e.Got, e.Want)
}

// HashError reports a content-hash mismatch: the bytes on disk are not
// the bytes the writer hashed. Loading never proceeds past it.
type HashError struct {
	Got, Want [hashSize]byte
}

func (e *HashError) Error() string {
	return fmt.Sprintf("image: content hash mismatch (file is corrupt or truncated): got %x, want %x", e.Got, e.Want)
}

// FormatError reports a structurally invalid image — truncation, a
// section out of bounds, a graph section that does not decode. The header was
// plausible but the body is not trustworthy.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "image: invalid image: " + e.Reason }

func formatErrf(format string, args ...any) *FormatError {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// header is the decoded fixed-size prefix.
type header struct {
	version      uint32
	flags        uint32
	numClasses   uint32
	numMembers   uint32
	numColumns   uint32
	sectionCount uint32
	hash         [hashSize]byte
}

func (h *header) trackPaths() bool { return h.flags&flagTrackPaths != 0 }
func (h *header) staticRule() bool { return h.flags&flagStaticRule != 0 }

// cellBytes returns the size in bytes of the cell section h describes,
// numColumns × numClasses × numMembers words, and false when that size
// does not fit in 64 bits: a plain product would wrap, and a crafted
// header could then match a short section.
func (h *header) cellBytes() (uint64, bool) {
	hi, lo := bits.Mul64(8*uint64(h.numColumns), uint64(h.numClasses)*uint64(h.numMembers))
	return lo, hi == 0
}

// section is one section-table entry.
type section struct {
	id   uint32
	off  uint64
	size uint64
}

// parseHeader validates the fixed prefix (magic, byte order, version)
// and extracts the header fields — everything needed to locate and
// verify the content hash. It does NOT validate the section table;
// that happens in parseSections, after the hash check, so that any
// corruption outside the identification prefix is reported uniformly
// as a *HashError. O(1) work.
func parseHeader(data []byte) (*header, error) {
	if len(data) < headerSize {
		return nil, formatErrf("file of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, ErrBadMagic
	}
	h := &header{
		version:      nativeOrder.Uint32(data[8:]),
		flags:        nativeOrder.Uint32(data[12:]),
		numClasses:   nativeOrder.Uint32(data[20:]),
		numMembers:   nativeOrder.Uint32(data[24:]),
		numColumns:   nativeOrder.Uint32(data[28:]),
		sectionCount: nativeOrder.Uint32(data[32:]),
	}
	copy(h.hash[:], data[hashOff:hashOff+hashSize])
	if bom := nativeOrder.Uint32(data[16:]); bom != byteOrderMark {
		return nil, ErrByteOrder
	}
	if h.version != Version {
		return nil, &VersionError{Got: h.version, Want: Version}
	}
	return h, nil
}

// parseSections validates the section table after the content hash has
// vouched for the bytes. O(sections) work.
func parseSections(data []byte, h *header) (map[uint32]section, error) {
	if h.sectionCount != numSections {
		return nil, formatErrf("version-%d image must have %d sections, header says %d", Version, numSections, h.sectionCount)
	}
	tableEnd := headerSize + int(h.sectionCount)*sectionEntrySize
	if len(data) < tableEnd {
		return nil, formatErrf("file truncated inside the section table")
	}
	secs := make(map[uint32]section, h.sectionCount)
	for i := 0; i < int(h.sectionCount); i++ {
		e := data[headerSize+i*sectionEntrySize:]
		s := section{
			id:   nativeOrder.Uint32(e),
			off:  nativeOrder.Uint64(e[8:]),
			size: nativeOrder.Uint64(e[16:]),
		}
		if s.off%8 != 0 {
			return nil, formatErrf("section %d at offset %d is not 8-byte aligned", s.id, s.off)
		}
		if s.off < uint64(tableEnd) || s.off+s.size < s.off || s.off+s.size > uint64(len(data)) {
			return nil, formatErrf("section %d spans [%d,%d) outside the %d-byte file", s.id, s.off, s.off+s.size, len(data))
		}
		if _, dup := secs[s.id]; dup {
			return nil, formatErrf("duplicate section id %d", s.id)
		}
		secs[s.id] = s
	}
	for id := uint32(1); id <= numSections; id++ {
		if _, ok := secs[id]; !ok {
			return nil, formatErrf("missing section id %d", id)
		}
	}
	return secs, nil
}
