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
// Pool. The contract mirrors Kernel exactly — Resolve computes
// lookup[c,m] given the results at c's direct bases — so memoization
// policy (lazy analyzer memo, eager table, engine snapshot cache)
// stays in the callers and is shared by every backend.
//
// Backends whose rule is not inductive over direct bases (gxx searches
// subobject graphs, C3 consults a whole-closure linearization) simply
// ignore get; the caller's memo still works because the answer depends
// only on (c, m).
//
// Implementations must be safe for concurrent Resolve calls, like the
// kernel they generalize.
type Semantics interface {
	// ID names the backend.
	ID() SemanticsID
	// Graph returns the CHG this backend answers over.
	Graph() *chg.Graph
	// Pool returns the payload pool every Result is packed over.
	Pool() *Pool
	// Resolve computes lookup[c,m]. get supplies lookup[X,m] for any
	// direct base X of c; backends that do not recurse over bases may
	// ignore it.
	Resolve(c chg.ClassID, m chg.MemberID, get func(chg.ClassID) Result) Result
}

// ClassResolver is the batched table-fill hook: a backend whose
// answers for one class are cheap to produce together (C3 resolves
// every member by one scan of the class's linearization; gxx amortizes
// one subobject graph per context class) implements it, and
// BuildSemTableStreamed fills tables class-parallel through it instead
// of entry-by-entry.
type ClassResolver interface {
	Semantics
	// ResolveClass fills out[i] with the packed cell of
	// lookup[c, ms[i]] for every i. len(out) == len(ms); ms is sorted
	// and every ms[i] ∈ Members[c].
	ResolveClass(c chg.ClassID, ms []chg.MemberID, out []Cell)
}

// ID identifies the kernel as the dominance backend, completing the
// Semantics interface (Graph, Pool, and Resolve predate it).
func (k *Kernel) ID() SemanticsID { return SemDominance }
