// Package layout computes concrete object layouts from the class
// hierarchy graph — the compiler-backend consumer of the subobject
// formalism. Where internal/subobject names the subobjects of an
// object abstractly (as ≈-classes of paths), this package assigns
// each of them an offset, making "an E object contains two A
// subobjects" (Figure 1) a literal statement about memory.
//
// The model is a simplified Itanium-style ABI with unit-sized fields
// and no alignment:
//
//   - the *base-object* region of class X lays out X's direct
//     non-virtual base subobjects in declaration order, then X's own
//     non-static data members, one unit each; virtual bases are NOT
//     included (they belong to the complete object);
//   - the *complete-object* layout of class C is C's base-object
//     region followed by one base-object region per virtual base of
//     C, in topological order — shared however many paths reach them.
//
// Subobjects are addressed by their canonical ≈-key (the same key
// internal/paths and internal/subobject use), so a lookup result's
// definition path leads straight to a field offset: that is exactly
// the this-pointer adjustment a compiler emits for the member access.
package layout

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cpplookup/internal/chg"
	"cpplookup/internal/paths"
)

// DefaultLimit bounds the number of placed subobjects (layout size is
// proportional to the subobject count, which can be exponential).
const DefaultLimit = 1 << 20

// Region is one placed subobject.
type Region struct {
	Key    string      // canonical ≈-class key
	Class  chg.ClassID // the subobject's class (ldc)
	Offset int         // start of the region in the complete object
}

// Layout is the complete-object layout of one class.
type Layout struct {
	g        *chg.Graph
	complete chg.ClassID
	size     int
	offsets  map[string]int // ≈-key → region offset
	regions  []Region
	// fieldSlot[class][member] = slot of the field within the class's
	// own-data area (after its non-virtual base regions).
	fieldSlot []map[chg.MemberID]int
	// ownDataStart[class] = size of the class's non-virtual base
	// regions, i.e. where its own fields start within its region.
	ownDataStart []int
	baseSize     []int // memoized base-object region sizes
	regionIndex  map[string]int
}

// Of computes the complete-object layout of class c. limit caps the
// subobject count (0 means DefaultLimit).
func Of(g *chg.Graph, c chg.ClassID, limit int) (*Layout, error) {
	if !g.Valid(c) {
		return nil, fmt.Errorf("layout: invalid class id %d", c)
	}
	if limit <= 0 {
		limit = DefaultLimit
	}
	l := &Layout{
		g:            g,
		complete:     c,
		offsets:      make(map[string]int),
		fieldSlot:    make([]map[chg.MemberID]int, g.NumClasses()),
		ownDataStart: make([]int, g.NumClasses()),
		baseSize:     make([]int, g.NumClasses()),
	}
	for i := range l.baseSize {
		l.baseSize[i] = -1
	}
	for x := 0; x < g.NumClasses(); x++ {
		l.computeClassSlots(chg.ClassID(x))
	}

	off := 0
	if err := l.place(c, []chg.ClassID{c}, &off, limit); err != nil {
		return nil, err
	}
	// Virtual bases, shared, in topological order (bases first, so a
	// virtual base's own region exists exactly once even when it is
	// itself a virtual base of another virtual base).
	for _, v := range g.Topo() {
		if g.IsVirtualBase(v, c) {
			if err := l.place(v, []chg.ClassID{v}, &off, limit); err != nil {
				return nil, err
			}
		}
	}
	l.size = off
	sort.Slice(l.regions, func(i, j int) bool {
		if l.regions[i].Offset != l.regions[j].Offset {
			return l.regions[i].Offset < l.regions[j].Offset
		}
		return l.regions[i].Key < l.regions[j].Key
	})
	l.regionIndex = make(map[string]int, len(l.regions))
	for i, r := range l.regions {
		l.regionIndex[r.Key] = i
	}
	return l, nil
}

// computeClassSlots assigns own-field slots for every class (relative
// to the start of the class's own-data area) and the area's start.
func (l *Layout) computeClassSlots(x chg.ClassID) {
	start := 0
	for _, e := range l.g.DirectBases(x) {
		if e.Kind == chg.NonVirtual {
			start += l.baseObjectSize(e.Base)
		}
	}
	l.ownDataStart[x] = start
	slots := make(map[chg.MemberID]int)
	n := 0
	for _, d := range l.g.DeclaredMembers(x) {
		if d.Kind == chg.Field && !d.Static {
			slots[d.ID] = n
			n++
		}
	}
	l.fieldSlot[x] = slots
}

// baseObjectSize returns the size of x's base-object region (own
// fields plus non-virtual base regions, recursively; virtual bases
// excluded).
func (l *Layout) baseObjectSize(x chg.ClassID) int {
	if l.baseSize[x] >= 0 {
		return l.baseSize[x]
	}
	size := 0
	for _, e := range l.g.DirectBases(x) {
		if e.Kind == chg.NonVirtual {
			size += l.baseObjectSize(e.Base)
		}
	}
	for _, m := range l.g.DeclaredMembers(x) {
		if m.Kind == chg.Field && !m.Static {
			size++
		}
	}
	l.baseSize[x] = size
	return size
}

// place lays out the base-object region of class x whose subobject
// has the given fixed path (ldc first), advancing *off.
func (l *Layout) place(x chg.ClassID, fixed []chg.ClassID, off *int, limit int) error {
	if len(l.regions) >= limit {
		return fmt.Errorf("layout: more than %d subobjects in a %s object", limit, l.g.Name(l.complete))
	}
	key := keyOf(fixed, l.complete)
	l.offsets[key] = *off
	l.regions = append(l.regions, Region{Key: key, Class: x, Offset: *off})

	base := *off
	for _, e := range l.g.DirectBases(x) {
		if e.Kind != chg.NonVirtual {
			continue
		}
		childFixed := make([]chg.ClassID, 0, len(fixed)+1)
		childFixed = append(childFixed, e.Base)
		childFixed = append(childFixed, fixed...)
		if err := l.place(e.Base, childFixed, off, limit); err != nil {
			return err
		}
	}
	// Own fields follow the non-virtual base regions.
	*off = base + l.ownDataStart[x] + len(l.fieldSlot[x])
	return nil
}

// keyOf renders the canonical ≈-class key: fixed node ids
// comma-joined, then "|mdc" — the same format as paths.Path.Key.
func keyOf(fixed []chg.ClassID, mdc chg.ClassID) string {
	var b strings.Builder
	for i, n := range fixed {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	fmt.Fprintf(&b, "|%d", mdc)
	return b.String()
}

// Graph returns the hierarchy the layout was computed over.
func (l *Layout) Graph() *chg.Graph { return l.g }

// Complete returns the laid-out class.
func (l *Layout) Complete() chg.ClassID { return l.complete }

// Size returns the object size in field units.
func (l *Layout) Size() int { return l.size }

// NumSubobjects returns the number of placed regions.
func (l *Layout) NumSubobjects() int { return len(l.regions) }

// Regions returns all placed subobjects ordered by offset. Shared
// slice; do not modify.
func (l *Layout) Regions() []Region { return l.regions }

// SubobjectOffset returns the region offset of p's ≈-class; p must
// end at the complete class.
func (l *Layout) SubobjectOffset(p paths.Path) (int, bool) {
	off, ok := l.offsets[p.Key()]
	return off, ok
}

// OffsetByKey returns the region offset for a canonical ≈-key.
func (l *Layout) OffsetByKey(key string) (int, bool) {
	off, ok := l.offsets[key]
	return off, ok
}

// FieldOffset returns the absolute offset of the non-static field m
// declared in ldc(p), within the subobject p denotes — the address a
// compiler computes for `obj.<path>.m`.
func (l *Layout) FieldOffset(p paths.Path, m chg.MemberID) (int, bool) {
	region, ok := l.offsets[p.Key()]
	if !ok {
		return 0, false
	}
	cls := p.Ldc()
	slot, ok := l.fieldSlot[cls][m]
	if !ok {
		return 0, false
	}
	return region + l.ownDataStart[cls] + slot, true
}

// FieldOffsetByKey is FieldOffset addressed by the canonical ≈-key
// instead of a representative path.
func (l *Layout) FieldOffsetByKey(key string, m chg.MemberID) (int, bool) {
	i, ok := l.regionIndex[key]
	if !ok {
		return 0, false
	}
	r := l.regions[i]
	slot, ok := l.fieldSlot[r.Class][m]
	if !ok {
		return 0, false
	}
	return r.Offset + l.ownDataStart[r.Class] + slot, true
}

// Adjustment returns the this-pointer adjustment for converting a
// pointer to the subobject `from` into a pointer to the subobject
// `to` (e.g. a derived-to-base cast along a definition path): simply
// the offset difference.
func (l *Layout) Adjustment(from, to paths.Path) (int, bool) {
	a, ok1 := l.offsets[from.Key()]
	b, ok2 := l.offsets[to.Key()]
	if !ok1 || !ok2 {
		return 0, false
	}
	return b - a, true
}

// Write renders the layout like compiler -fdump-class-hierarchy
// output: one line per region, offset first.
func (l *Layout) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "layout of %s (size %d):\n", l.g.Name(l.complete), l.size); err != nil {
		return err
	}
	for _, r := range l.regions {
		if _, err := fmt.Fprintf(w, "  %4d  %s  [%s]\n", r.Offset, l.g.Name(r.Class), r.Key); err != nil {
			return err
		}
	}
	return nil
}
