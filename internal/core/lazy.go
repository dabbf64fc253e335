package core

import (
	"sync"
	"sync/atomic"

	"cpplookup/internal/chg"
)

// Lookup resolves member m in the context of class c — the memoising
// lazy variant described in Section 5: a request for lookup[C,m]
// recursively invokes lookup[B,m] for every direct base class B of C,
// caching every entry it computes so that the total work over any
// sequence of queries never exceeds the eager algorithm's.
//
// Results: Undefined when m is not a member of c at all, Red when the
// lookup unambiguously resolves (Result.Class() is the declaring
// class), Blue when ambiguous.
func (a *Analyzer) Lookup(c chg.ClassID, m chg.MemberID) Result {
	g := a.sem.Graph()
	if !g.Valid(c) || m < 0 || int(m) >= g.NumMemberNames() {
		return UndefinedResult()
	}
	if a.runs == nil {
		a.runs = make([][]uint64, g.NumMemberNames())
	}
	words := a.runs[m]
	if words == nil {
		words = make([]uint64, g.NumClasses())
		a.runs[m] = words
	}
	if w := words[c]; w != 0 {
		return a.sem.Pool().View(Cell(w))
	}
	r, _ := FillRun(a.sem, words, c, m)
	return r
}

// FillRun computes lookup[c,m] under sem into words, member m's run of
// a lazy cache (words[x] holds the packed Cell of lookup[x,m], 0 while
// unfilled), and returns it with the number of words it published. It
// is the one memoising recursion behind the Analyzer's memo and
// internal/engine's snapshot columns: an unfilled word is resolved with
// a get that recurses into the same run for the class's direct bases,
// and each computed word is published with an atomic swap and counted
// if the swap found it still 0. A filled word is answered as is, so a
// second fill of a cell reports 0.
//
// A fill's recursion reads only entries for the same member name, so a
// caller that serializes fills of one run (engine: a per-member shard
// lock; Analyzer: one goroutine) covers the whole recursion with it,
// and each word is computed once; concurrent readers may load the words
// atomically meanwhile. A rare payload is interned in sem's pool before
// its word exists, so a reader that observes a word also observes the
// payload behind it.
//
// The kernel's closure calls resolve directly with one pooled scratch
// frame per recursion depth, so a miss allocates nothing; handed to a
// backend through an interface it would escape to the heap on every
// miss. Any other backend must be a ClassResolver (resolverOf panics
// otherwise), and FillRun resolves each cell as a row of one member,
// kept with its cell in the pooled scratch so that the interface call
// allocates nothing either. Such a backend fails every name on a class
// it cannot resolve, so FillRun decides membership itself, by Figure
// 8's lines [6]–[9]: a failed cell of a class that does not declare m
// keeps the failure only when some direct base's cell, read through
// the same recursion, is not Undefined; otherwise m ∉ Members[c], and
// the cell is Undefined, as in the backend's table.
func FillRun(sem Semantics, words []uint64, c chg.ClassID, m chg.MemberID) (Result, int) {
	k, cr := resolverOf(sem)
	pool := sem.Pool()
	st := fillScratch.Get().(*fillStack)
	st.published = 0
	var res Result
	if k != nil {
		var get func(x chg.ClassID) Result
		get = func(x chg.ClassID) Result {
			if w := atomic.LoadUint64(&words[x]); w != 0 {
				// Already published — possibly by a writer ahead of
				// us while the caller waited on its lock.
				return pool.View(Cell(w))
			}
			st.depth++
			r := k.resolve(x, m, get, st.frame(st.depth-1))
			st.depth--
			st.publish(words, x, r)
			return r
		}
		res = get(c)
	} else {
		g := sem.Graph()
		st.name[0] = m
		var get func(x chg.ClassID) Result
		get = func(x chg.ClassID) Result {
			if w := atomic.LoadUint64(&words[x]); w != 0 {
				return pool.View(Cell(w))
			}
			// The row is reused by the recursion below, so r keeps
			// this class's cell.
			st.cell[0] = 0
			cr.ResolveClass(x, st.name[:], st.cell[:])
			r := pool.View(st.cell[0])
			if r.Kind() == FailKind && !g.Declares(x, m) {
				member := false
				for _, e := range g.DirectBases(x) {
					if get(e.Base).Kind() != Undefined {
						member = true
						break
					}
				}
				if !member {
					r = UndefinedResult()
				}
			}
			st.publish(words, x, r)
			return r
		}
		res = get(c)
	}
	n := st.published
	fillScratch.Put(st)
	return res, n
}

// fillStack is one fill's scratch: a resolve frame per recursion depth,
// the one-member row a ClassResolver fills, and the count of words the
// fill published. resolve's rotating buffers are mid-flight state: when
// a resolve at depth d calls get and get resolves a base class, the
// nested call needs frame d+1 — frame d still holds the outer call's
// partial join. Frames are created on first use and kept, so a stack
// reused across a million misses allocates one frame per
// hierarchy-depth level, not one per miss.
type fillStack struct {
	frames    []*resolveScratch
	depth     int
	name      [1]chg.MemberID
	cell      [1]Cell
	published int
}

// fillScratch recycles fill stacks across misses and goroutines, so
// steady-state misses are allocation-free.
var fillScratch = sync.Pool{New: func() any { return new(fillStack) }}

// frame returns the scratch frame for recursion depth d (0-based).
func (st *fillStack) frame(d int) *resolveScratch {
	for len(st.frames) <= d {
		st.frames = append(st.frames, new(resolveScratch))
	}
	return st.frames[d]
}

// publish stores r's packed word at class x and counts it if the word
// was still unfilled, so that a word two cache versions sharing one run
// both fill is counted once. Versions share a run only while they share
// the pool and agree on every entry in it, so both store the same word.
func (st *fillStack) publish(words []uint64, x chg.ClassID, r Result) {
	if atomic.SwapUint64(&words[x], uint64(r.Cell())) == 0 {
		st.published++
	}
}

// LookupByName resolves a member by class and member name; it returns
// an Undefined result if either name is unknown.
func (a *Analyzer) LookupByName(class, member string) Result {
	g := a.sem.Graph()
	c, ok := g.ID(class)
	if !ok {
		return UndefinedResult()
	}
	m, ok := g.MemberID(member)
	if !ok {
		return UndefinedResult()
	}
	return a.Lookup(c, m)
}
