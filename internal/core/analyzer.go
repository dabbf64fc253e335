package core

import (
	"cpplookup/internal/chg"
)

// Analyzer runs the paper's lookup algorithm over one class hierarchy
// graph. It is cheap to construct: all preprocessing (topological
// order, virtual-base lists) already lives in the chg.Graph.
//
// An Analyzer memoizes lazy lookups (Lookup) and can also tabulate
// eagerly (BuildTable). Its memo is one run of packed cells per member
// name, allocated at that member's first lookup and filled through
// FillRun, the same recursion internal/engine's snapshot columns fill
// through: a hit is one array index and one word load, and a miss
// allocates nothing in the steady state.
//
// Thread-safety contract: the lazy memo is deliberately
// unsynchronized — allocating a member's run on first lookup and
// filling it take no lock — so an Analyzer must be confined to a
// single goroutine (or externally serialized) while Lookup is in use.
// The Table returned by BuildTable or BuildSemTable is immutable once
// built and safe for any number of concurrent readers, as is the
// underlying Kernel. To serve lookups from many goroutines without a
// table build, use internal/engine's Snapshot, which fills the same
// runs under per-member shard locks and reads them lock-free.
type Analyzer struct {
	k   *Kernel // nil when the analyzer drives a non-dominance backend
	sem Semantics
	// runs[m][c] is the packed lookup[c,m], 0 until filled; runs and
	// each runs[m] stay nil until the first lookup that needs them.
	runs [][]uint64
}

// Option configures a Kernel at construction time (and hence every
// Analyzer, Table, or engine Snapshot built on it). Options are
// applied once, before the kernel is shared; the resulting
// configuration is immutable and safe for concurrent use.
type Option func(*Kernel)

// WithTrackPaths makes red results carry the full winning definition
// path (Result.Path), as a compiler needs for code generation. The
// paper notes (end of Section 4) that this does not change the
// algorithm's complexity because at most one red definition is
// propagated across any edge. The option only sets an immutable flag
// at construction; it introduces no shared mutable state, so results
// with paths are as safe to read concurrently as results without.
func WithTrackPaths() Option {
	return func(k *Kernel) { k.trackPaths = true }
}

// WithStaticRule enables the static-member extension of Definitions
// 16–17 (Section 6): the dominates test additionally succeeds when
// both definitions come from the same class and the member is static
// there (type names and enumerators count as static). Blue sets then
// carry full (L, V) pairs rather than bare leastVirtual values so the
// same-class test remains possible against ambiguous inheritances.
// Like WithTrackPaths, this sets an immutable construction-time flag
// and does not affect the thread-safety contract.
func WithStaticRule() Option {
	return func(k *Kernel) { k.staticRule = true }
}

// WithSemantics requests additional resolution backends alongside the
// dominance kernel. The kernel itself still answers Figure 8
// dominance — the option only records the backend ids, and the layers
// that serve multiple semantics (engine Snapshots, the CLI) read them
// through Kernel.ExtraSemantics and materialize one cache column per
// id. "dominance" is implicit and filtered out; duplicates collapse.
// Like the other options this sets immutable construction-time
// configuration only.
func WithSemantics(ids ...SemanticsID) Option {
	return func(k *Kernel) {
		for _, id := range ids {
			if id == SemDominance {
				continue
			}
			dup := false
			for _, have := range k.extraSems {
				if have == id {
					dup = true
					break
				}
			}
			if !dup {
				k.extraSems = append(k.extraSems, id)
			}
		}
	}
}

// WithPool makes the kernel intern payloads into p instead of a fresh
// private pool. A nil p is ignored. This is what lets a successor
// snapshot share its predecessor's pool during warm-cache carry-over:
// packed cells copied from the old snapshot keep referencing payload
// indices that remain valid, because both kernels resolve against the
// same interning table. The pool is safe for concurrent use, so
// sharing does not change the thread-safety contract — it only ties
// the payloads' lifetime to the longest-lived sharer.
func WithPool(p *Pool) Option {
	return func(k *Kernel) {
		if p != nil {
			k.pool = p
		}
	}
}

// New returns an Analyzer for g. It panics if g is nil — an analyzer
// without a hierarchy can answer nothing, and failing at construction
// beats a nil dereference on the first query.
func New(g *chg.Graph, opts ...Option) *Analyzer {
	if g == nil {
		panic("core: New requires a non-nil *chg.Graph (build one with chg.NewBuilder().Build())")
	}
	k := NewKernel(g, opts...)
	return &Analyzer{k: k, sem: k}
}

// NewFor returns an Analyzer driving an arbitrary resolution backend
// through the same lazy memo the dominance analyzer uses. A *Kernel
// backend yields exactly New's analyzer (Kernel() is non-nil); any
// other backend must be a ClassResolver, and FillRun fills each of its
// cells as a row of one member. A backend that is neither panics at
// the first lookup that fills a cell.
func NewFor(s Semantics) *Analyzer {
	if s == nil {
		panic("core: NewFor requires a non-nil Semantics")
	}
	a := &Analyzer{sem: s}
	if k, ok := s.(*Kernel); ok {
		a.k = k
	}
	return a
}

// Graph returns the underlying CHG.
func (a *Analyzer) Graph() *chg.Graph { return a.sem.Graph() }

// Kernel returns the analyzer's pure algorithm kernel, or nil when
// the analyzer drives a non-dominance backend (NewFor). The kernel is
// immutable and may be shared across goroutines even while this
// analyzer is in use.
func (a *Analyzer) Kernel() *Kernel { return a.k }

// Semantics returns the resolution backend the analyzer drives — the
// kernel itself for dominance analyzers.
func (a *Analyzer) Semantics() Semantics { return a.sem }
