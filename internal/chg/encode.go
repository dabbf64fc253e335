package chg

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// Serialization: a Graph can be persisted and reloaded — the
// "precompiled header" use case, where a compiler caches a library's
// hierarchy between translation units. Only the declared facts
// (classes, edges, members) are stored; derived data (topological
// order, closures) is recomputed through Builder on load, which also
// re-validates untrusted inputs.

// MaxMemberNames is the largest member-name universe any serialized
// form of a Graph supports: every persistent encoding (the gob/JSON
// wire forms here, and internal/image's snapshot images, whose
// topology section stores member ids in 16 bits) addresses member
// names with 16-bit ids. In-memory graphs are not limited; the bound
// is checked at the serialization boundary and violating it is a
// *MemberSpaceError.
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

// graphWire is the stable wire form.
type graphWire struct {
	Classes []classWire
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
	w := graphWire{Classes: make([]classWire, len(g.classes))}
	for i := range g.classes {
		c := &g.classes[i]
		cw := classWire{Name: c.name, Members: append([]Member(nil), c.members...)}
		for _, e := range c.bases {
			cw.Bases = append(cw.Bases, edgeWire{Base: int32(e.Base), Virtual: e.Kind == Virtual})
		}
		w.Classes[i] = cw
	}
	return w
}

// fromWire rebuilds a graph from its wire form. Names must be valid
// UTF-8: JSON cannot carry other bytes, so two names differing only in
// invalid bytes would collide when the graph is written back as JSON.
func fromWire(w graphWire) (*Graph, error) {
	b := NewBuilder()
	for _, c := range w.Classes {
		b.Class(c.Name)
	}
	for i, c := range w.Classes {
		id, ok := b.byName[c.Name]
		if !ok || id != ClassID(i) {
			return nil, fmt.Errorf("chg: decode: duplicate or reordered class %q", c.Name)
		}
		if !utf8.ValidString(c.Name) {
			return nil, fmt.Errorf("chg: decode: class name %q is not valid UTF-8", c.Name)
		}
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
	if g.NumMemberNames() > MaxMemberNames {
		return nil, &MemberSpaceError{NumMemberNames: g.NumMemberNames()}
	}
	return g, nil
}

// MarshalBinary encodes the graph with encoding/gob.
func (g *Graph) MarshalBinary() ([]byte, error) {
	if g.NumMemberNames() > MaxMemberNames {
		return nil, &MemberSpaceError{NumMemberNames: g.NumMemberNames()}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g.wire()); err != nil {
		return nil, fmt.Errorf("chg: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a graph produced by MarshalBinary,
// re-validating it and recomputing the derived structures.
func UnmarshalBinary(data []byte) (*Graph, error) {
	var w graphWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("chg: decode: %w", err)
	}
	return fromWire(w)
}

// WriteJSON writes the graph's declared facts as JSON (stable,
// human-inspectable interop form).
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
