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
// backend through the Semantics interface it would escape to the heap
// on every miss. Other backends (C3 and gxx ignore get) fill through
// Resolve; their closure does escape, so the count lives in the pooled
// scratch, not in a local the closure would move to the heap.
func FillRun(sem Semantics, words []uint64, c chg.ClassID, m chg.MemberID) (Result, int) {
	pool := sem.Pool()
	st := fillScratch.Get().(*fillStack)
	st.published = 0
	var res Result
	if k, ok := sem.(*Kernel); ok {
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
		var get func(x chg.ClassID) Result
		get = func(x chg.ClassID) Result {
			if w := atomic.LoadUint64(&words[x]); w != 0 {
				return pool.View(Cell(w))
			}
			r := sem.Resolve(x, m, get)
			st.publish(words, x, r)
			return r
		}
		res = get(c)
	}
	n := st.published
	fillScratch.Put(st)
	return res, n
}

// fillStack is one fill's scratch: a resolve frame per recursion depth
// and the count of words the fill published. resolve's rotating buffers
// are mid-flight state: when a resolve at depth d calls get and get
// resolves a base class, the nested call needs frame d+1 — frame d
// still holds the outer call's partial join. Frames are created on
// first use and kept, so a stack reused across a million misses
// allocates one frame per hierarchy-depth level, not one per miss.
type fillStack struct {
	frames    []*resolveScratch
	depth     int
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
