// Package devirt answers the question a compiler asks at every
// virtual call site: given a call `x->m()` where x's static type is
// class c, which member definitions can the call actually reach?
//
// Class-hierarchy analysis (CHA) answers it by intersecting the
// lookup table with c's descendant cone: the dynamic type of x is c
// or any class derived from c, so the possible targets are the
// distinct declaring classes that member lookup resolves m to across
// that cone. When the set collapses to a single declaring class the
// site is monomorphic — the compiler can replace the virtual dispatch
// with a direct (inlinable) call.
//
// The Resolver leans on the engine's bulk machinery end to end: cones
// come from the graph's closure rows (or BFS past DenseClosureLimit,
// via chg.EachDescendant), the cone's lookups drain through
// Snapshot.LookupBatch's sorted path, batches of call sites dedup to
// unique (class, member) pairs so one cone traversal serves every
// duplicate site, and two fast paths skip cone resolution outright:
// leaf roots (the cone is the root alone, one lookup decides) and —
// via a declaration census built at construction — members with a
// single declaring class (no cone lookups at all).
package devirt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/par"
)

// Site is one virtual call site: a member called on a receiver whose
// static type is Class.
type Site struct {
	Class  chg.ClassID
	Member chg.MemberID
}

// Resolution is the CHA answer for one (static type, member) pair.
type Resolution struct {
	Root   chg.ClassID
	Member chg.MemberID

	// Targets holds the distinct declaring classes member lookup
	// resolves Member to across Root's cone (Root plus all strict
	// descendants), ascending by class id — the possible override
	// targets of the call. Receivers whose lookup is undefined,
	// ambiguous, or failed contribute no target: a call through them
	// is ill-formed, not a dispatch. Resolutions produced by
	// ResolveBatch may share one Targets slice across duplicate
	// sites; treat it as immutable.
	Targets []chg.ClassID

	// Monomorphic reports len(Targets) == 1: every receiver type that
	// can legally make the call lands in the same declaring class.
	Monomorphic bool

	// FastPath reports the answer skipped the batched cone
	// resolution: either the root is a leaf (one lookup was the whole
	// cone; tallies exact) or the member has a single declaring class
	// (no cone lookups at all; tallies zero). Resolver.FullStats
	// disables both when exact tallies matter more than speed.
	FastPath bool

	// Cone is the number of receiver types considered: Root plus its
	// strict descendants.
	Cone int

	// Resolved, Undefined, Ambiguous and Failed tally the cone's
	// lookup outcomes. On the general and leaf paths they are exact
	// (summing to Cone); on the single-declarer fast path they are
	// all zero.
	Resolved, Undefined, Ambiguous, Failed int
}

// Resolver answers CHA queries against one immutable snapshot under
// one resolution backend. It precomputes a declaration census (how
// many classes declare each member, and which class when unique) at
// construction; Resolve* calls then share cone traversals and batch
// scratch. A Resolver's exported fields must be set before first use;
// its methods are safe for concurrent callers.
type Resolver struct {
	snap *engine.Snapshot
	sem  core.SemanticsID
	g    *chg.Graph

	// declCount[m] is the number of classes declaring member m;
	// soleDecl[m] is that class when declCount[m] == 1.
	declCount []int32
	soleDecl  []chg.ClassID

	// FullStats disables the single-declarer fast path so every
	// resolution carries exact per-cone tallies.
	FullStats bool

	// Workers bounds the fan-out of ResolveBatch and of a single
	// large cone's lookups: 0 picks automatically (the engine batch
	// heuristics), 1 forces serial.
	Workers int

	scratch sync.Pool // *resolveScratch
}

// resolveScratch is one worker's reusable buffers.
type resolveScratch struct {
	qs      []engine.Query
	res     []core.Result
	visited *bitset.Set
	queue   []chg.ClassID
	counts  map[chg.ClassID]struct{}
	batch   core.BatchScratch
}

// New builds a Resolver over snap's backend sem. It fails when the
// snapshot was not built to serve sem.
func New(snap *engine.Snapshot, sem core.SemanticsID) (*Resolver, error) {
	served := false
	for _, id := range snap.Semantics() {
		if id == sem {
			served = true
			break
		}
	}
	if !served {
		return nil, fmt.Errorf("devirt: snapshot does not serve backend %q", sem)
	}
	g := snap.Graph()
	r := &Resolver{
		snap:      snap,
		sem:       sem,
		g:         g,
		declCount: make([]int32, g.NumMemberNames()),
		soleDecl:  make([]chg.ClassID, g.NumMemberNames()),
	}
	for c := 0; c < g.NumClasses(); c++ {
		for _, mem := range g.DeclaredMembers(chg.ClassID(c)) {
			m := g.MustMemberID(mem.Name)
			r.declCount[m]++
			r.soleDecl[m] = chg.ClassID(c)
		}
	}
	r.scratch.New = func() any {
		return &resolveScratch{
			visited: bitset.New(g.NumClasses()),
			counts:  make(map[chg.ClassID]struct{}),
		}
	}
	return r, nil
}

// Snapshot returns the snapshot the resolver answers from.
func (r *Resolver) Snapshot() *engine.Snapshot { return r.snap }

// Semantics returns the backend the resolver answers under.
func (r *Resolver) Semantics() core.SemanticsID { return r.sem }

// ResolveTargets is the single-site entry point: the CHA resolution
// of member m called on static type c. Invalid ids yield an empty
// resolution (no targets, zero cone).
func (r *Resolver) ResolveTargets(c chg.ClassID, m chg.MemberID) Resolution {
	sc := r.scratch.Get().(*resolveScratch)
	defer r.scratch.Put(sc)
	return r.resolveOne(sc, c, m, r.Workers)
}

// resolveOne computes one resolution using sc's buffers; workers
// bounds the cone batch's internal fan-out.
func (r *Resolver) resolveOne(sc *resolveScratch, c chg.ClassID, m chg.MemberID, workers int) Resolution {
	res := Resolution{Root: c, Member: m}
	if !r.g.Valid(c) || m < 0 || int(m) >= len(r.declCount) {
		return res
	}

	if !r.FullStats && len(r.g.DirectDerived(c)) == 0 {
		// Leaf fast path, sound under every backend: a class with no
		// derived classes is its own entire cone, so one lookup is
		// the whole resolution — and its tallies are exact, so this
		// answer is indistinguishable from the general path's except
		// for the FastPath flag.
		lr, _ := r.snap.LookupSem(r.sem, c, m)
		res.Cone = 1
		res.FastPath = true
		switch {
		case lr.Found():
			res.Resolved = 1
			res.Targets = []chg.ClassID{lr.Class()}
			res.Monomorphic = true
		case lr.Ambiguous():
			res.Ambiguous = 1
		case lr.Failed():
			res.Failed = 1
		default:
			res.Undefined = 1
		}
		return res
	}

	if !r.FullStats && r.sem == core.SemDominance && r.declCount[m] == 1 {
		// Single-declarer fast path: only one class L in the whole
		// hierarchy declares m, so any receiver whose lookup succeeds
		// resolves to L — under dominance no other declaring class
		// exists to dominate or be dominated. The target set is
		// therefore exactly {L} as soon as one receiver in the cone
		// provably resolves: the root, if m is visible there, or L
		// itself, if it sits inside the cone (a class always resolves
		// its own declaration). Both checks ride on work the
		// resolution needs anyway — one root lookup plus the cone
		// walk that sizes Cone — so no per-receiver lookups are
		// issued. When neither check fires (L outside the cone and m
		// invisible at the root) the answer depends on which cone
		// members inherit from L, and we fall through to the general
		// path.
		L := r.soleDecl[m]
		n := 1
		inCone := c == L
		sc.queue = r.g.EachDescendant(c, sc.visited, sc.queue, func(d chg.ClassID) {
			n++
			if d == L {
				inCone = true
			}
		})
		if inCone || r.snap.Lookup(c, m).Found() {
			res.Targets = []chg.ClassID{L}
			res.Monomorphic = true
			res.FastPath = true
			res.Cone = n
			return res
		}
	}

	// General path: batch-resolve m for every class in the cone.
	sc.qs = sc.qs[:0]
	sc.qs = append(sc.qs, engine.Query{Class: c, Member: m})
	sc.queue = r.g.EachDescendant(c, sc.visited, sc.queue, func(d chg.ClassID) {
		sc.qs = append(sc.qs, engine.Query{Class: d, Member: m})
	})
	out, _ := r.snap.LookupBatchSemWorkers(r.sem, sc.qs, sc.res[:0], workers)
	sc.res = out

	res.Cone = len(sc.qs)
	for _, lr := range out {
		switch {
		case lr.Found():
			res.Resolved++
			sc.counts[lr.Class()] = struct{}{}
		case lr.Ambiguous():
			res.Ambiguous++
		case lr.Failed():
			res.Failed++
		default:
			res.Undefined++
		}
	}
	if len(sc.counts) > 0 {
		res.Targets = make([]chg.ClassID, 0, len(sc.counts))
		for t := range sc.counts {
			res.Targets = append(res.Targets, t)
			delete(sc.counts, t)
		}
		sort.Slice(res.Targets, func(i, j int) bool { return res.Targets[i] < res.Targets[j] })
	}
	res.Monomorphic = len(res.Targets) == 1
	return res
}

// ResolveBatch resolves a whole slice of call sites, appending one
// Resolution per site to out (out[i] answers sites[i]) and returning
// it. Duplicate sites — the common case in real call-site streams,
// where hot (type, member) pairs repeat millions of times — are
// deduplicated first: each distinct pair's cone is traversed and
// resolved once and the Resolution is shared by every duplicate
// (Targets aliased; treat as immutable). Distinct pairs are resolved
// member-major, each member's pairs in ascending class order, so
// consecutive cone walks look up one member and their misses fill
// under that member's shard lock; the snapshot's cells are
// class-major, so those lookups are numMembers words apart, not one
// cache column. Pairs fan out over work-stealing workers when Workers
// allows.
func (r *Resolver) ResolveBatch(sites []Site, out []Resolution) []Resolution {
	need := len(out) + len(sites)
	if cap(out) < need {
		grown := make([]Resolution, len(out), need)
		copy(grown, out)
		out = grown
	}
	dst := out[len(out):need]
	out = out[:need]
	if len(sites) == 0 {
		return out
	}

	sc := r.scratch.Get().(*resolveScratch)
	defer r.scratch.Put(sc)

	nc := uint64(r.g.NumClasses())
	nm := uint64(len(r.declCount))
	sentinel := nc * nm
	keys := sc.batch.Keys(len(sites))
	for i, s := range sites {
		if !r.g.Valid(s.Class) || s.Member < 0 || uint64(s.Member) >= nm {
			keys[i] = sentinel
			continue
		}
		keys[i] = uint64(s.Member)*nc + uint64(s.Class)
	}
	sorted, perm := sc.batch.Sort(len(sites), sentinel)

	// Group runs of equal keys: each group is one distinct site
	// resolved once. Invalid sites are answered inline.
	type group struct {
		key    uint64
		lo, hi int // positions in sorted/perm
	}
	var groups []group
	for i := 0; i < len(sorted); {
		key := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == key {
			j++
		}
		if key == sentinel {
			for k := i; k < j; k++ {
				s := sites[perm[k]]
				dst[perm[k]] = Resolution{Root: s.Class, Member: s.Member}
			}
		} else {
			groups = append(groups, group{key, i, j})
		}
		i = j
	}

	workers := r.Workers
	if workers == 0 && len(groups) >= 64 {
		// Auto: one worker per ~32 groups, bounded by the machine.
		workers = len(groups) / 32
		if p := runtime.GOMAXPROCS(0); workers > p {
			workers = p
		}
	}
	// Work-stealing over small contiguous chunks of groups. Each
	// group writes a disjoint set of dst positions, so workers never
	// race on results; cell fills race benignly under the engine's
	// shard locks. Worker 0 reuses the batch's own scratch, whose sort
	// buffers resolveOne never touches.
	const chunk = 8
	chunks := (len(groups) + chunk - 1) / chunk
	scs := make([]*resolveScratch, par.Workers(chunks, max(workers, 1)))
	scs[0] = sc
	for i := 1; i < len(scs); i++ {
		scs[i] = r.scratch.Get().(*resolveScratch)
		defer r.scratch.Put(scs[i])
	}
	par.For(chunks, len(scs), func(w, i int) {
		for _, gr := range groups[i*chunk : min((i+1)*chunk, len(groups))] {
			res := r.resolveOne(scs[w], chg.ClassID(gr.key%nc), chg.MemberID(gr.key/nc), 1)
			for k := gr.lo; k < gr.hi; k++ {
				dst[perm[k]] = res
			}
		}
	})
	return out
}
