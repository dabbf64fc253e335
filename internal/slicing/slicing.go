// Package slicing implements class hierarchy slicing in the style of
// Tip, Choi, Field & Ramalingam (OOPSLA '96) — the other application
// the paper names for its lookup algorithm ("our lookup algorithm is
// also useful in efficiently implementing class hierarchy slicing").
//
// Given a set of slicing criteria — the (class, member) lookups a
// program actually performs — the slice is the sub-hierarchy that
// preserves the result of every criterion lookup: the criterion
// classes, all their (transitive) bases, the inheritance edges among
// them, and the declarations of criterion member names inside them.
// Everything else (unused classes, unused members) is deleted.
//
// The central guarantee — lookup in the sliced hierarchy equals
// lookup in the original for every criterion — holds because a
// lookup's Defns set is determined entirely by the ancestor subgraph
// of the context class, which the slice keeps intact.
package slicing

import (
	"fmt"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// Criterion is one lookup the sliced program must keep working.
type Criterion struct {
	Class  chg.ClassID
	Member chg.MemberID
}

// Slice is the result of Compute.
type Slice struct {
	// Graph is the sliced hierarchy (fresh ids; same class names).
	Graph *chg.Graph
	// Kept maps original class ids to sliced ids; absent classes were
	// deleted.
	Kept map[chg.ClassID]chg.ClassID
	// Stats summarise the reduction.
	Stats Stats
}

// Stats reports original vs sliced sizes.
type Stats struct {
	ClassesBefore, ClassesAfter int
	EdgesBefore, EdgesAfter     int
	DeclsBefore, DeclsAfter     int
}

func (s Stats) String() string {
	return fmt.Sprintf("classes %d→%d, edges %d→%d, member decls %d→%d",
		s.ClassesBefore, s.ClassesAfter, s.EdgesBefore, s.EdgesAfter,
		s.DeclsBefore, s.DeclsAfter)
}

// Compute slices g down to the given criteria.
func Compute(g *chg.Graph, criteria []Criterion) (*Slice, error) {
	keep, visited := bitset.New(g.NumClasses()), new(bitset.Set)
	wantMember := bitset.New(g.NumMemberNames())
	for _, cr := range criteria {
		if !g.Valid(cr.Class) {
			return nil, fmt.Errorf("slicing: invalid class id %d", cr.Class)
		}
		if cr.Member < 0 || int(cr.Member) >= g.NumMemberNames() {
			return nil, fmt.Errorf("slicing: invalid member id %d", cr.Member)
		}
		keep.Add(int(cr.Class))
		g.EachAncestor(cr.Class, visited, nil, func(x chg.ClassID) { keep.Add(int(x)) })
		wantMember.Add(int(cr.Member))
	}

	b := chg.NewBuilder()
	kept := make(map[chg.ClassID]chg.ClassID, keep.Count())
	// Create classes in topological order so edges can be added
	// immediately.
	for _, c := range g.Topo() {
		if !keep.Has(int(c)) {
			continue
		}
		nid := b.Class(g.Name(c))
		kept[c] = nid
		for _, e := range g.DirectBases(c) {
			// Every base of a kept class is kept (ancestor closure).
			b.Base(nid, kept[e.Base], e.Kind)
		}
		for _, d := range g.DeclaredMembers(c) {
			if wantMember.Has(int(d.ID)) {
				b.Member(nid, d.Member)
			}
		}
	}
	sliced, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("slicing: rebuilding hierarchy: %w", err)
	}

	declsBefore, declsAfter := 0, 0
	for c := 0; c < g.NumClasses(); c++ {
		declsBefore += len(g.DeclaredMembers(chg.ClassID(c)))
	}
	for c := 0; c < sliced.NumClasses(); c++ {
		declsAfter += len(sliced.DeclaredMembers(chg.ClassID(c)))
	}
	return &Slice{
		Graph: sliced,
		Kept:  kept,
		Stats: Stats{
			ClassesBefore: g.NumClasses(), ClassesAfter: sliced.NumClasses(),
			EdgesBefore: g.NumEdges(), EdgesAfter: sliced.NumEdges(),
			DeclsBefore: declsBefore, DeclsAfter: declsAfter,
		},
	}, nil
}

// MapCriterion translates a criterion into the sliced graph's ids.
func (s *Slice) MapCriterion(g *chg.Graph, cr Criterion) (chg.ClassID, chg.MemberID, bool) {
	nc, ok := s.Kept[cr.Class]
	if !ok {
		return 0, 0, false
	}
	nm, ok := s.Graph.MemberID(g.MemberName(cr.Member))
	if !ok {
		return 0, 0, false
	}
	return nc, nm, true
}
