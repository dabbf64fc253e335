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
// The Resolver computes target sets bottom-up. A cone splits over
// direct derived classes, cone(c) = {c} ∪ ⋃ cone(d), so under every
// backend
//
//	targets(c, m) = {lookup(c, m).L} ∪ ⋃ targets(d, m)
//
// over c's direct derived classes d. A member run — every distinct
// call site on one member in a batch — walks the union of its roots'
// cones once in post-order, looks each class in it up once, and
// merges child sets, reusing a child's set whenever the parent adds
// nothing to it. The memo lives in per-worker scratch for that one
// run only. Cone sizes do not add up over a DAG, so each root's is
// counted once by chg.EachDescendant (dense closure rows, or BFS past
// DenseClosureLimit) and cached on the Resolver. Every cell is read
// through Snapshot.LookupSem, the snapshot's memoising lookup.
package devirt

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// sites, and one backing array across a member's sites; treat it
	// as immutable.
	Targets []chg.ClassID

	// Monomorphic reports len(Targets) == 1: every receiver type that
	// can legally make the call lands in the same declaring class.
	Monomorphic bool

	// FastPath reports the answer came from the bottom-up target-set
	// recurrence. It is always true for a valid site: the recurrence
	// is the Resolver's only path.
	FastPath bool

	// Cone is the number of receiver types considered: Root plus its
	// strict descendants.
	Cone int
}

// Resolver answers CHA queries against one immutable snapshot under
// one resolution backend. It caches each root's cone size; Resolve*
// calls share it and pooled per-worker scratch. A Resolver's exported
// fields must be set before first use; its methods are safe for
// concurrent callers.
type Resolver struct {
	snap *engine.Snapshot
	sem  core.SemanticsID
	g    *chg.Graph

	// cone[c] is |cone(c)|, c plus its strict descendants, or 0 while
	// no call has needed it.
	cone []atomic.Int32

	// receivers counts the classes the recurrence looked up and
	// coneWalks the cone-size walks, each added to once per member
	// run. For tests.
	receivers, coneWalks atomic.Int64

	// Workers bounds the fan-out of ResolveBatch over member runs: 0
	// picks automatically, 1 forces serial.
	Workers int

	scratch sync.Pool // *resolveScratch
}

// resolveScratch is one worker's reusable buffers.
type resolveScratch struct {
	batch core.BatchScratch // ResolveBatch's site sort
	out   []Resolution      // resolveRun's answers

	// Cone-size walks.
	visited *bitset.Set
	queue   []chg.ClassID

	// The recurrence's memo for one member run: c's target set is
	// sets[setOf[c]] when stamp[c] == run. Set 0 is the empty set.
	run   uint32
	stamp []uint32
	setOf []int32
	sets  []span
	arena []chg.ClassID // every set's sorted targets, back to back
	stack []frame

	// Deduplication: t is in the set being built when mark[t] == tick.
	tick  uint32
	mark  []uint32
	extra []chg.ClassID
}

// span is one target set: arena[off:off+n]. out is its offset in the
// member run's result buffer, or -1 before a root needs it.
type span struct{ off, n, out int32 }

// frame is one class on the recurrence's DFS stack, with the index of
// the next direct derived class to descend into.
type frame struct {
	c    chg.ClassID
	next int32
}

// New builds a Resolver over snap's backend sem. It fails when the
// snapshot was not built to serve sem.
func New(snap *engine.Snapshot, sem core.SemanticsID) (*Resolver, error) {
	if !slices.Contains(snap.Semantics(), sem) {
		return nil, fmt.Errorf("devirt: snapshot does not serve backend %q", sem)
	}
	g := snap.Graph()
	n := g.NumClasses()
	r := &Resolver{snap: snap, sem: sem, g: g, cone: make([]atomic.Int32, n)}
	r.scratch.New = func() any {
		return &resolveScratch{
			visited: bitset.New(n),
			stamp:   make([]uint32, n),
			setOf:   make([]int32, n),
			mark:    make([]uint32, n),
		}
	}
	return r, nil
}

// Snapshot returns the snapshot the resolver answers from.
func (r *Resolver) Snapshot() *engine.Snapshot { return r.snap }

// Semantics returns the backend the resolver answers under.
func (r *Resolver) Semantics() core.SemanticsID { return r.sem }

// valid reports whether (c, m) names a class and member of the graph.
func (r *Resolver) valid(c chg.ClassID, m chg.MemberID) bool {
	return r.g.Valid(c) && m >= 0 && int(m) < r.g.NumMemberNames()
}

// ResolveTargets is the single-site entry point: the CHA resolution
// of member m called on static type c. Invalid ids yield an empty
// resolution (no targets, zero cone).
func (r *Resolver) ResolveTargets(c chg.ClassID, m chg.MemberID) Resolution {
	if !r.valid(c, m) {
		return Resolution{Root: c, Member: m}
	}
	sc := r.scratch.Get().(*resolveScratch)
	defer r.putScratch(sc)
	return r.resolveRun(sc, m, []chg.ClassID{c})[0]
}

// ResolveBatch resolves a whole slice of call sites, appending one
// Resolution per site to out (out[i] answers sites[i]) and returning
// it. Duplicate sites — the common case in real call-site streams,
// where hot (type, member) pairs repeat millions of times — are
// deduplicated first by a radix sort, member-major, and every
// duplicate shares its pair's Resolution (Targets aliased; treat as
// immutable). Each member's distinct pairs form one member run, which
// walks the union of their cones once; runs fan out over
// work-stealing workers when Workers allows.
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
	defer r.putScratch(sc)

	nc := uint64(r.g.NumClasses())
	sentinel := nc * uint64(r.g.NumMemberNames())
	keys := sc.batch.Keys(len(sites))
	for i, s := range sites {
		if !r.valid(s.Class, s.Member) {
			keys[i] = sentinel
			continue
		}
		keys[i] = uint64(s.Member)*nc + uint64(s.Class)
	}
	sorted, perm := sc.batch.Sort(len(sites), sentinel)

	// Invalid sites sort last and are answered inline.
	valid := len(sorted)
	for valid > 0 && sorted[valid-1] == sentinel {
		valid--
		s := sites[perm[valid]]
		dst[perm[valid]] = Resolution{Root: s.Class, Member: s.Member}
	}
	if valid == 0 {
		return out
	}
	// Group runs of equal keys: each group is one distinct site,
	// roots[i] its class and sorted/perm[lo[i]:lo[i+1]] its
	// duplicates. runs[j] is the first group of the j-th member run.
	var roots []chg.ClassID
	var lo, runs []int
	for i := 0; i < valid; i++ {
		if i > 0 && sorted[i] == sorted[i-1] {
			continue
		}
		if i == 0 || sorted[i]/nc != sorted[i-1]/nc {
			runs = append(runs, len(roots))
		}
		roots = append(roots, chg.ClassID(sorted[i]%nc))
		lo = append(lo, i)
	}
	lo = append(lo, valid)
	runs = append(runs, len(roots))

	workers := r.Workers
	if workers == 0 && len(roots) >= 64 {
		// Auto: one worker per ~32 distinct sites, bounded by the
		// machine.
		workers = min(len(roots)/32, runtime.GOMAXPROCS(0))
	}
	// Each member run writes a disjoint set of dst positions, so
	// workers never race on results; cell fills race benignly under
	// the engine's shard locks. Worker 0 reuses the batch's own
	// scratch, whose sort buffers resolveRun never touches.
	nruns := len(runs) - 1
	scs := make([]*resolveScratch, par.Workers(nruns, max(workers, 1)))
	scs[0] = sc
	for i := 1; i < len(scs); i++ {
		scs[i] = r.scratch.Get().(*resolveScratch)
		defer r.putScratch(scs[i])
	}
	par.For(nruns, len(scs), func(w, j int) {
		first, last := runs[j], runs[j+1]
		m := chg.MemberID(sorted[lo[first]] / nc)
		for i, res := range r.resolveRun(scs[w], m, roots[first:last]) {
			for k := lo[first+i]; k < lo[first+i+1]; k++ {
				dst[perm[k]] = res
			}
		}
	})
	return out
}

// maxPooledArena caps, in targets, the arena a scratch keeps when it
// goes back to the pool. One hot member's run can grow it to hundreds
// of thousands, and the pool would pin that between batches.
const maxPooledArena = 1 << 16

// putScratch returns sc to the pool, dropping an oversized arena.
func (r *Resolver) putScratch(sc *resolveScratch) {
	if cap(sc.arena) > maxPooledArena {
		sc.arena = nil
	}
	r.scratch.Put(sc)
}

// resolveRun resolves member m at every root (valid and distinct)
// using sc's buffers and returns the answers in sc.out, which the next
// call overwrites.
func (r *Resolver) resolveRun(sc *resolveScratch, m chg.MemberID, roots []chg.ClassID) []Resolution {
	sc.out = slices.Grow(sc.out[:0], len(roots))[:len(roots)]
	sc.run++
	if sc.run == 0 {
		clear(sc.stamp)
		sc.run = 1
	}
	sc.sets = append(sc.sets[:0], span{out: -1})
	sc.arena = sc.arena[:0]
	looked, walks, total := 0, 0, int32(0)
	for _, c := range roots {
		looked += r.targetSet(sc, c, m)
		if s := &sc.sets[sc.setOf[c]]; s.out < 0 {
			s.out = total
			total += s.n
		}
	}

	// Copy the roots' sets out of the arena, which the next run
	// reuses: one buffer per run, one slice per distinct set.
	buf := make([]chg.ClassID, total)
	for _, s := range sc.sets {
		if s.out >= 0 {
			copy(buf[s.out:], sc.arena[s.off:s.off+s.n])
		}
	}
	for i, c := range roots {
		n, walked := r.coneSize(sc, c)
		if walked {
			walks++
		}
		s := sc.sets[sc.setOf[c]]
		res := Resolution{Root: c, Member: m, Cone: n, FastPath: true, Monomorphic: s.n == 1}
		if s.n > 0 {
			res.Targets = buf[s.out : s.out+s.n : s.out+s.n]
		}
		sc.out[i] = res
	}
	r.receivers.Add(int64(looked))
	r.coneWalks.Add(int64(walks))
	return sc.out
}

// targetSet memoizes targets(c, m) in sc for the current member run,
// visiting c's cone in post-order down to the classes the run has
// already finished, and returns how many classes it looked up. The
// stack is explicit because towers and chains nest deep. A class is
// stamped when pushed; in a DAG a stamped child is never still on
// the stack (that would close a cycle), so it is finished.
func (r *Resolver) targetSet(sc *resolveScratch, c chg.ClassID, m chg.MemberID) int {
	if sc.stamp[c] == sc.run {
		return 0
	}
	looked := 0
	sc.stamp[c] = sc.run
	sc.stack = append(sc.stack[:0], frame{c: c})
	for len(sc.stack) > 0 {
		top := &sc.stack[len(sc.stack)-1]
		derived := r.g.DirectDerived(top.c)
		for int(top.next) < len(derived) && sc.stamp[derived[top.next]] == sc.run {
			top.next++
		}
		if int(top.next) < len(derived) {
			d := derived[top.next]
			sc.stamp[d] = sc.run
			sc.stack = append(sc.stack, frame{c: d})
			continue
		}
		x := top.c
		sc.stack = sc.stack[:len(sc.stack)-1]
		own := chg.ClassID(-1)
		if lr, _ := r.snap.LookupSem(r.sem, x, m); lr.Found() {
			own = lr.Class()
		}
		sc.setOf[x] = sc.union(own, derived)
		looked++
	}
	return looked
}

// union returns the id of {own} ∪ ⋃ sets[setOf[d]] over derived; own
// < 0 adds nothing. When the union is no larger than the largest
// child set it is that set, and its id is reused, so chains and
// towers that resolve alike share one set instead of copying it at
// every level.
func (sc *resolveScratch) union(own chg.ClassID, derived []chg.ClassID) int32 {
	best := int32(0)
	for _, d := range derived {
		if s := sc.setOf[d]; sc.sets[s].n > sc.sets[best].n {
			best = s
		}
	}
	// others is how many targets the remaining children hold.
	others := 0
	for _, d := range derived {
		if s := sc.setOf[d]; s != best {
			others += int(sc.sets[s].n)
		}
	}
	b := sc.members(best)
	if others == 0 && (own < 0 || inSorted(b, own)) {
		return best
	}

	// Collect the targets b lacks, each once. When the other children
	// hold few targets, binary-search b for each; otherwise mark b's.
	sc.nextTick()
	search := others*bits.Len(uint(len(b))) < len(b)
	if !search {
		for _, t := range b {
			sc.mark[t] = sc.tick
		}
	}
	sc.extra = sc.extra[:0]
	add := func(t chg.ClassID) {
		if sc.mark[t] != sc.tick {
			sc.mark[t] = sc.tick
			if !search || !inSorted(b, t) {
				sc.extra = append(sc.extra, t)
			}
		}
	}
	if own >= 0 {
		add(own)
	}
	for _, d := range derived {
		if s := sc.setOf[d]; s != best {
			for _, t := range sc.members(s) {
				add(t)
			}
		}
	}
	if len(sc.extra) == 0 {
		return best
	}

	// Merge b and the sorted extras into a new set.
	slices.Sort(sc.extra)
	n := len(b) + len(sc.extra)
	off := len(sc.arena)
	sc.arena = slices.Grow(sc.arena, n)
	b = sc.members(best)
	i, j := 0, 0
	for i < len(b) && j < len(sc.extra) {
		if b[i] < sc.extra[j] {
			sc.arena = append(sc.arena, b[i])
			i++
		} else {
			sc.arena = append(sc.arena, sc.extra[j])
			j++
		}
	}
	sc.arena = append(append(sc.arena, b[i:]...), sc.extra[j:]...)
	sc.sets = append(sc.sets, span{off: int32(off), n: int32(n), out: -1})
	return int32(len(sc.sets) - 1)
}

// nextTick starts a new deduplication: no class is marked.
func (sc *resolveScratch) nextTick() {
	sc.tick++
	if sc.tick == 0 {
		clear(sc.mark)
		sc.tick = 1
	}
}

// members returns set id's targets.
func (sc *resolveScratch) members(id int32) []chg.ClassID {
	s := sc.sets[id]
	return sc.arena[s.off : s.off+s.n]
}

// inSorted reports whether t is in the ascending slice xs.
func inSorted(xs []chg.ClassID, t chg.ClassID) bool {
	_, ok := slices.BinarySearch(xs, t)
	return ok
}

// coneSize returns |cone(c)|, walking c's descendants the first time
// any call needs it; walked reports that this call did. Concurrent
// first calls may both walk and store the same size.
func (r *Resolver) coneSize(sc *resolveScratch, c chg.ClassID) (n int, walked bool) {
	if n := r.cone[c].Load(); n != 0 {
		return int(n), false
	}
	n = 1
	sc.queue = r.g.EachDescendant(c, sc.visited, sc.queue, func(chg.ClassID) { n++ })
	r.cone[c].Store(int32(n))
	return n, true
}
