package image

import (
	"crypto/sha256"
	"os"
	"unsafe"

	"cpplookup/internal/engine"
)

// Bytes serializes the snapshot's current warm state into an image of
// the current Version. The pool image is taken FIRST and the cells are
// copied once, straight into the image, by Snapshot.CopyCells, which
// saves any word whose payload that pool image lacks as unfilled: a
// fill racing the save costs one refill after a load, never a dangling
// payload index. Cells not yet filled are written as zero words and
// fill lazily after a load.
//
// Graphs whose member-name universe exceeds chg.MaxMemberNames cannot
// be imaged (the graph section stores 16-bit member ids) and return
// a *chg.MemberSpaceError.
func Bytes(s *engine.Snapshot) ([]byte, error) {
	g := s.Graph()
	gb, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	pool := s.Pool().Image()
	k := s.Kernel()
	backends := s.Semantics()

	w := newImageBuf()

	w.beginSection(secGraph)
	w.b = append(w.b, gb...)
	w.beginSection(secBackends)
	for i, id := range backends {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, id...)
	}

	w.beginSection(secPoolRecs)
	w.b = appendRaw(w.b, pool.Recs)
	w.beginSection(secPoolIDs)
	w.b = appendRaw(w.b, pool.IDs)
	w.beginSection(secPoolDefs)
	w.b = appendRaw(w.b, pool.Defs)

	w.beginSection(secCells)
	s.CopyCells(w.grow(len(backends)*g.NumClasses()*g.NumMemberNames()), pool)

	return w.finish(header{
		version:      Version,
		flags:        packFlags(k.TrackPaths(), k.StaticRule()),
		numClasses:   uint32(g.NumClasses()),
		numMembers:   uint32(g.NumMemberNames()),
		numColumns:   uint32(len(backends)),
		sectionCount: numSections,
	}), nil
}

// WriteFile serializes the snapshot to path (0644, replaced
// atomically-enough via a straight write; images are caches, a torn
// write is caught by the loader's content hash).
func WriteFile(path string, s *engine.Snapshot) error {
	b, err := Bytes(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func packFlags(trackPaths, staticRule bool) uint32 {
	var f uint32
	if trackPaths {
		f |= flagTrackPaths
	}
	if staticRule {
		f |= flagStaticRule
	}
	return f
}

// imageBuf assembles the file: header and section table reserved up
// front, sections appended 8-aligned, offsets recorded as they are
// laid down, hash computed last over the assembled bytes (the hash
// field still zero at that point, which is exactly the hashing rule).
type imageBuf struct {
	b    []byte
	secs []section
}

func newImageBuf() *imageBuf {
	return &imageBuf{b: make([]byte, headerSize+numSections*sectionEntrySize)}
}

func (w *imageBuf) align8() {
	for len(w.b)%8 != 0 {
		w.b = append(w.b, 0)
	}
}

// beginSection closes the previous section at the exact end of its
// payload (before any alignment padding — sizes are used as element
// counts by the loader) and starts a new one at the next 8-aligned
// offset.
func (w *imageBuf) beginSection(id uint32) {
	w.closeSection()
	w.align8()
	w.secs = append(w.secs, section{id: id, off: uint64(len(w.b))})
}

func (w *imageBuf) closeSection() {
	if n := len(w.secs); n > 0 {
		w.secs[n-1].size = uint64(len(w.b)) - w.secs[n-1].off
	}
}

// grow extends the buffer by n words and returns them, to be written
// through as a []uint64 view of the new bytes. Such a view must be
// 8-aligned: the buffer moves into a fresh []uint64 backing array,
// which is, and the new words start at an 8-aligned offset because
// every section does (beginSection).
func (w *imageBuf) grow(n int) []uint64 {
	off := len(w.b) / 8
	words := make([]uint64, off+n)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
	copy(b, w.b)
	w.b = b
	return words[off:]
}

// appendRaw appends s's in-memory bytes to b.
func appendRaw[T any](b []byte, s []T) []byte {
	if len(s) == 0 {
		return b
	}
	return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))...)
}

// finish closes the last section, writes the header and section
// table into the reserved prefix, and stamps the content hash.
func (w *imageBuf) finish(h header) []byte {
	w.closeSection()

	copy(w.b[:8], Magic)
	nativeOrder.PutUint32(w.b[8:], h.version)
	nativeOrder.PutUint32(w.b[12:], h.flags)
	nativeOrder.PutUint32(w.b[16:], byteOrderMark)
	nativeOrder.PutUint32(w.b[20:], h.numClasses)
	nativeOrder.PutUint32(w.b[24:], h.numMembers)
	nativeOrder.PutUint32(w.b[28:], h.numColumns)
	nativeOrder.PutUint32(w.b[32:], h.sectionCount)
	for i, s := range w.secs {
		e := w.b[headerSize+i*sectionEntrySize:]
		nativeOrder.PutUint32(e, s.id)
		nativeOrder.PutUint64(e[8:], s.off)
		nativeOrder.PutUint64(e[16:], s.size)
	}
	stampHash(w.b)
	return w.b
}

// stampHash writes the content hash of image b, SHA-256 of b with the
// hash field zeroed, into the hash field.
func stampHash(b []byte) {
	clear(b[hashOff : hashOff+hashSize])
	sum := sha256.Sum256(b)
	copy(b[hashOff:hashOff+hashSize], sum[:])
}
