package chg

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// Serialization: a Graph can be persisted and reloaded — the
// "precompiled header" use case, where a compiler caches a library's
// hierarchy between translation units. Two forms store the same
// model, graphWire: MarshalBinary's compact little-endian form (also
// the graph section of internal/image's snapshot images) and
// WriteJSON's human-inspectable one. Both keep every class id and
// member id, names no class declares included, so a table indexed by
// (class id, member id) reads back against the decoded graph. Only the
// declared facts are stored; derived data (topological order, virtual
// bases) is recomputed on load by fromWire, which replays the model
// through a Builder and so re-validates untrusted input.

// MaxMemberNames is the largest member-name universe a serialized
// Graph supports: MarshalBinary's declaration words, and with them a
// snapshot image's graph section, store member ids in 16 bits, and
// WriteJSON keeps the same bound so that either form converts to the
// other. In-memory graphs are not limited; the bound is checked at the
// serialization boundary and violating it is a *MemberSpaceError.
const MaxMemberNames = 1 << 16

// MemberSpaceError reports a graph whose interned member names exceed
// the 16-bit id space persistent encodings use.
type MemberSpaceError struct {
	NumMemberNames int
}

func (e *MemberSpaceError) Error() string {
	return fmt.Sprintf("chg: graph has %d member names, more than the %d a serialized graph can address",
		e.NumMemberNames, MaxMemberNames)
}

// graphWire is the model both forms encode: the member-name universe
// in id order, then the classes in id order. JSON written before the
// universe was stored lacks MemberNames; its names are interned in
// first-declaration order.
type graphWire struct {
	MemberNames []string `json:",omitempty"`
	Classes     []classWire
}

type classWire struct {
	Name    string
	Bases   []edgeWire
	Members []Member
}

type edgeWire struct {
	Base    int32
	Virtual bool
}

func (g *Graph) wire() graphWire {
	w := graphWire{MemberNames: g.memberNames, Classes: make([]classWire, len(g.classes))}
	for i := range g.classes {
		c := &g.classes[i]
		cw := classWire{Name: c.name}
		for _, d := range c.decls {
			cw.Members = append(cw.Members, d.Member)
		}
		for _, e := range c.bases {
			cw.Bases = append(cw.Bases, edgeWire{Base: int32(e.Base), Virtual: e.Kind == Virtual})
		}
		w.Classes[i] = cw
	}
	return w
}

// fromWire rebuilds a graph from its wire form: the listed member
// names are interned first, in order, so they keep their ids, and
// classes are created in id order. A listed universe must name every
// declared member, once each. Names must be valid UTF-8: JSON cannot
// carry other bytes, so two names differing only in invalid bytes
// would collide when the graph is written back as JSON.
func fromWire(w graphWire) (*Graph, error) {
	b := &Builder{hierarchy: hierarchy{
		classes:   make([]class, 0, len(w.Classes)),
		byName:    make(map[string]ClassID, len(w.Classes)),
		memberIDs: make(map[string]MemberID, len(w.MemberNames)),
	}}
	for i, name := range w.MemberNames {
		if !utf8.ValidString(name) {
			return nil, fmt.Errorf("chg: decode: member name %q is not valid UTF-8", name)
		}
		if b.MemberName(name) != MemberID(i) {
			return nil, fmt.Errorf("chg: decode: member name %d (%q) is empty or listed twice", i, name)
		}
	}
	for i, c := range w.Classes {
		if !utf8.ValidString(c.Name) {
			return nil, fmt.Errorf("chg: decode: class name %q is not valid UTF-8", c.Name)
		}
		if b.Class(c.Name) != ClassID(i) {
			return nil, fmt.Errorf("chg: decode: duplicate class %q", c.Name)
		}
	}
	for i, c := range w.Classes {
		id := ClassID(i)
		for _, e := range c.Bases {
			if int(e.Base) < 0 || int(e.Base) >= len(w.Classes) {
				return nil, fmt.Errorf("chg: decode: class %q has out-of-range base %d", c.Name, e.Base)
			}
			kind := NonVirtual
			if e.Virtual {
				kind = Virtual
			}
			b.Base(id, ClassID(e.Base), kind)
		}
		for _, m := range c.Members {
			if !utf8.ValidString(m.Name) {
				return nil, fmt.Errorf("chg: decode: class %q declares member name %q, not valid UTF-8", c.Name, m.Name)
			}
			b.Member(id, m)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if w.MemberNames != nil && g.NumMemberNames() != len(w.MemberNames) {
		return nil, fmt.Errorf("chg: decode: a class declares member %q, which MemberNames does not list", g.MemberName(MemberID(len(w.MemberNames))))
	}
	if g.NumMemberNames() > MaxMemberNames {
		return nil, &MemberSpaceError{NumMemberNames: g.NumMemberNames()}
	}
	return g, nil
}

// binaryMagic opens MarshalBinary's form; its last byte is the form's
// version.
const binaryMagic = "chg\x01"

var le = binary.LittleEndian

// MarshalBinary encodes the graph in a compact little-endian form that
// keeps every class and member id, in u32 words:
//
//	magic "chg\x01", class count, member-name count
//	the byte length of each class name, then of each member name, in id order
//	those names' bytes, concatenated in the same order
//	per class, in id order: its base count and declaration count, then
//	  one word per direct base:  base<<1 | virtual
//	  one word per declaration:  member id | kind<<16 | static<<18 | virtual<<19
//
// UnmarshalBinary accepts no other encoding of a graph — no trailing
// bytes and no reserved bit set — so an input it accepts re-encodes
// byte-identically.
func (g *Graph) MarshalBinary() ([]byte, error) {
	if g.NumMemberNames() > MaxMemberNames {
		return nil, &MemberSpaceError{NumMemberNames: g.NumMemberNames()}
	}
	names := append(g.ClassNames(), g.memberNames...)
	b := le.AppendUint32(le.AppendUint32([]byte(binaryMagic), uint32(len(g.classes))), uint32(len(g.memberNames)))
	for _, name := range names {
		b = le.AppendUint32(b, uint32(len(name)))
	}
	for _, name := range names {
		b = append(b, name...)
	}
	for i := range g.classes {
		c := &g.classes[i]
		b = le.AppendUint32(le.AppendUint32(b, uint32(len(c.bases))), uint32(len(c.decls)))
		for _, e := range c.bases {
			b = le.AppendUint32(b, uint32(e.Base)<<1|uint32(e.Kind))
		}
		for _, d := range c.decls {
			word := uint32(d.ID) | uint32(d.Kind)<<16
			if d.Static {
				word |= 1 << 18
			}
			if d.Virtual {
				word |= 1 << 19
			}
			b = le.AppendUint32(b, word)
		}
	}
	return b, nil
}

// errTruncated reports a binary graph that ends before its counts say.
var errTruncated = errors.New("chg: decode: binary graph is truncated")

// UnmarshalBinary decodes a graph produced by MarshalBinary,
// re-validating it and recomputing the derived structures. Every count
// is checked against the bytes left before anything is allocated for
// it.
func UnmarshalBinary(data []byte) (*Graph, error) {
	if len(data) < 12 || string(data[:4]) != binaryMagic {
		return nil, errors.New("chg: decode: not a binary graph")
	}
	nc, nm := uint64(le.Uint32(data[4:])), uint64(le.Uint32(data[8:]))
	if nm > MaxMemberNames {
		return nil, &MemberSpaceError{NumMemberNames: int(nm)}
	}
	rest := data[12:]
	// A class takes 12 bytes at least (a name length and two counts),
	// and a member name 4 (its length).
	if 12*nc+4*nm > uint64(len(rest)) {
		return nil, fmt.Errorf("chg: decode: %d classes and %d member names do not fit in %d bytes", nc, nm, len(data))
	}
	lens, rest := rest[:4*(nc+nm)], rest[4*(nc+nm):]
	total := uint64(0)
	for i := 0; i < len(lens); i += 4 {
		total += uint64(le.Uint32(lens[i:]))
	}
	if total > uint64(len(rest)) {
		return nil, errTruncated
	}
	blob := string(rest[:total])
	rest = rest[total:]
	names := make([]string, nc+nm)
	for i := range names {
		n := le.Uint32(lens[4*i:])
		names[i], blob = blob[:n], blob[n:]
	}
	w := graphWire{MemberNames: names[nc:], Classes: make([]classWire, nc)}
	word := func() uint32 {
		v := le.Uint32(rest)
		rest = rest[4:]
		return v
	}
	for i := range w.Classes {
		if len(rest) < 8 {
			return nil, errTruncated
		}
		nb, nd := uint64(word()), uint64(word())
		if 4*(nb+nd) > uint64(len(rest)) {
			return nil, errTruncated
		}
		cw := &w.Classes[i]
		cw.Name, cw.Bases, cw.Members = names[i], make([]edgeWire, nb), make([]Member, nd)
		for j := range cw.Bases {
			v := word()
			cw.Bases[j] = edgeWire{Base: int32(v >> 1), Virtual: v&1 != 0}
		}
		for j := range cw.Members {
			v := word()
			if v>>20 != 0 || uint64(v&0xFFFF) >= nm {
				return nil, fmt.Errorf("chg: decode: class %q has malformed declaration word %#x", cw.Name, v)
			}
			cw.Members[j] = Member{Name: names[nc+uint64(v&0xFFFF)], Kind: MemberKind(v >> 16 & 3), Static: v>>18&1 != 0, Virtual: v>>19&1 != 0}
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("chg: decode: %d trailing bytes after the binary graph", len(rest))
	}
	return fromWire(w)
}

// WriteJSON writes the graph's declared facts as JSON (stable,
// human-inspectable interop form), member-name universe included.
func (g *Graph) WriteJSON(w io.Writer) error {
	if g.NumMemberNames() > MaxMemberNames {
		return &MemberSpaceError{NumMemberNames: g.NumMemberNames()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g.wire())
}

// ReadJSON reads a graph from WriteJSON output.
func ReadJSON(r io.Reader) (*Graph, error) {
	var w graphWire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("chg: decode json: %w", err)
	}
	return fromWire(w)
}
