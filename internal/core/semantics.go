package core

// The resolution-backend interface: Figure 8 dominance is one member
// lookup semantics over a class hierarchy graph, not the only one.
// C3/MRO linearization (Python, Dylan) and the breadth-first g++
// 2.7.2.1 baseline answer the same question — "what does C::m mean?" —
// with different rules, over the same CHG, producing the same shape of
// answer (resolved to a declaring class / ambiguous / undefined / the
// backend gave up). Semantics abstracts exactly that contract, so
// every caching layer built for the dominance kernel — packed Cells,
// interned payload pools, eager Tables, engine snapshot columns with
// warm carry — serves any backend unchanged.

import (
	"fmt"

	"cpplookup/internal/chg"
)

// SemanticsID names a resolution backend. IDs are the user-facing
// spelling of the `-semantics` CLI flags and the keys of engine
// snapshot columns.
type SemanticsID string

const (
	// SemDominance is the paper's Figure 8 dominance lookup — the
	// default backend, implemented by Kernel.
	SemDominance SemanticsID = "dominance"
	// SemC3 is C3 linearization (Python ≥ 2.3, Dylan): each class gets
	// a total order over its base closure, and a lookup resolves to
	// the first class in that order declaring the member. Implemented
	// by internal/mro.
	SemC3 SemanticsID = "c3"
	// SemGxx is the g++ 2.7.2.1 breadth-first subobject search that
	// the paper's Figure 9 diverges from. Implemented by
	// internal/gxx's Backend.
	SemGxx SemanticsID = "gxx"
)

// Semantics is a resolution backend: a pure, concurrency-safe lookup
// rule over one CHG, producing packed-cell Results over one payload
// Pool. It names only what every caching layer reads — the backend's
// id, graph and pool — and how a backend resolves is settled by
// resolverOf: the dominance *Kernel resolves one cell from the results
// at the class's direct bases, and every other backend is a
// ClassResolver. Memoization policy (FillRun's lazy runs, whole-table
// builds, engine snapshot columns) stays in the callers and is shared
// by every backend.
//
// Implementations must be safe for concurrent use, like the kernel
// they generalize.
type Semantics interface {
	// ID names the backend.
	ID() SemanticsID
	// Graph returns the CHG this backend answers over.
	Graph() *chg.Graph
	// Pool returns the payload pool every Result is packed over.
	Pool() *Pool
}

// ClassResolver is how every backend but the dominance *Kernel
// resolves: whole-table builds call it once per class and chunk
// window, and FillRun once per lazily filled cell, as a row of one
// member. Its answers for one class are cheap to produce together (C3
// resolves every member by one scan of the class's linearization; gxx
// amortizes one subobject graph per context class). Neither rule is
// inductive over direct bases, so the resolver reads no other cell.
type ClassResolver interface {
	Semantics
	// ResolveClass fills out[i] with the packed cell of
	// lookup[c, ms[i]] for every i. len(out) == len(ms), ms is sorted,
	// and out arrives zeroed. A whole-table build asks only about
	// ms[i] ∈ Members[c]; FillRun asks about any name, and a name c
	// does not see must come back Undefined. A class the backend
	// cannot resolve at all (a failed C3 merge, a gxx subobject graph
	// over its limit) fails every name: FillRun then applies Figure
	// 8's membership rule to decide which of its cells keep the
	// failure.
	ResolveClass(c chg.ClassID, ms []chg.MemberID, out []Cell)
}

// resolverOf splits s into the two ways a backend resolves: the
// dominance kernel, or a ClassResolver. A backend that is neither is a
// programming error, and panics naming it.
func resolverOf(s Semantics) (*Kernel, ClassResolver) {
	if k, ok := s.(*Kernel); ok {
		return k, nil
	}
	if cr, ok := s.(ClassResolver); ok {
		return nil, cr
	}
	panic(fmt.Sprintf("core: backend %s is neither a *Kernel nor a ClassResolver", s.ID()))
}

// ID identifies the kernel as the dominance backend, completing the
// Semantics interface (Graph and Pool predate it).
func (k *Kernel) ID() SemanticsID { return SemDominance }
