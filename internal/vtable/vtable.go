// Package vtable constructs virtual-function tables from the lookup
// table — one of the two compiler applications the paper names for
// its algorithm ("in performing static analysis and in constructing
// virtual-function tables", Section 1).
//
// For each class C, the vtable has one slot per virtual member name
// visible in C. The slot's implementation is exactly lookup(C, m):
// the most dominant definition is the final overrider. A slot whose
// lookup is ambiguous is marked; C++ makes a class with an ambiguous
// final overrider ill-formed only if the function is virtual in a
// shared base, so the builder records rather than rejects it.
package vtable

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// Slot is one vtable entry.
type Slot struct {
	Member chg.MemberID
	// Introduced is the topologically first base class that declares
	// the member virtual — the class that created the slot.
	Introduced chg.ClassID
	// Impl is the final overrider: the class whose definition the
	// lookup resolves to. Valid when !Ambiguous.
	Impl chg.ClassID
	// Path is the winning definition path (ldc … C), for thunk/cast
	// generation.
	Path []chg.ClassID
	// Ambiguous marks slots whose final overrider is ambiguous.
	Ambiguous bool
}

// VTable is the virtual dispatch table of one class.
type VTable struct {
	Class chg.ClassID
	Slots []Slot
}

// Builder constructs vtables for a hierarchy, sharing one lookup
// analyzer across classes.
type Builder struct {
	g *chg.Graph
	a *core.Analyzer
	// virtualName[m] is true if any class declares member m virtual.
	virtualName []bool
	// introducer[m] is the topologically first class declaring m
	// virtual.
	introducer []chg.ClassID
}

// NewBuilder prepares vtable construction for g.
func NewBuilder(g *chg.Graph) *Builder {
	b := &Builder{
		g:           g,
		a:           core.New(g, core.WithTrackPaths()),
		virtualName: make([]bool, g.NumMemberNames()),
		introducer:  make([]chg.ClassID, g.NumMemberNames()),
	}
	for i := range b.introducer {
		b.introducer[i] = chg.Omega
	}
	for _, c := range g.Topo() {
		for _, d := range g.DeclaredMembers(c) {
			if d.Virtual && !b.virtualName[d.ID] {
				b.virtualName[d.ID] = true
				b.introducer[d.ID] = c
			}
		}
	}
	return b
}

// Build returns the vtable of class c: a slot for every virtual
// member name m with lookup(c, m) defined, ordered by the topological
// position of the introducing class (base slots first, as real
// layouts do), breaking ties by member id.
func (b *Builder) Build(c chg.ClassID) VTable {
	g := b.g
	vt := VTable{Class: c}
	self := bitset.New(g.NumClasses()) // c and its bases
	self.Add(int(c))
	g.EachAncestor(c, new(bitset.Set), nil, func(x chg.ClassID) { self.Add(int(x)) })
	for m := 0; m < g.NumMemberNames(); m++ {
		if !b.virtualName[m] {
			continue
		}
		r := b.a.Lookup(c, chg.MemberID(m))
		if r.Kind() == core.Undefined {
			continue
		}
		slot := Slot{Member: chg.MemberID(m), Introduced: b.introducer[m]}
		// The slot exists only if the introducing class is c or a base
		// of c — a same-named non-virtual member elsewhere must not
		// create a slot.
		if !self.Has(int(slot.Introduced)) {
			continue
		}
		if r.Kind() == core.BlueKind {
			slot.Ambiguous = true
		} else {
			slot.Impl = r.Class()
			slot.Path = r.Path()
		}
		vt.Slots = append(vt.Slots, slot)
	}
	sort.SliceStable(vt.Slots, func(i, j int) bool {
		pi, pj := g.TopoPos(vt.Slots[i].Introduced), g.TopoPos(vt.Slots[j].Introduced)
		if pi != pj {
			return pi < pj
		}
		return vt.Slots[i].Member < vt.Slots[j].Member
	})
	return vt
}

// BuildAll returns vtables for every class that has at least one
// slot, in topological order.
func (b *Builder) BuildAll() []VTable {
	var out []VTable
	for _, c := range b.g.Topo() {
		vt := b.Build(c)
		if len(vt.Slots) > 0 {
			out = append(out, vt)
		}
	}
	return out
}

// Write renders a vtable like compiler dump tools do.
func (vt VTable) Write(w io.Writer, g *chg.Graph) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vtable for %s:\n", g.Name(vt.Class))
	for i, s := range vt.Slots {
		name := g.MemberName(s.Member)
		if s.Ambiguous {
			fmt.Fprintf(&sb, "  [%d] %s  <ambiguous final overrider>\n", i, name)
			continue
		}
		fmt.Fprintf(&sb, "  [%d] %s -> %s::%s", i, name, g.Name(s.Impl), name)
		if len(s.Path) > 1 {
			names := make([]string, len(s.Path))
			for j, id := range s.Path {
				names[j] = g.Name(id)
			}
			fmt.Fprintf(&sb, "  (via %s)", strings.Join(names, "->"))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
