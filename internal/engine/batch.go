package engine

// Bulk lookups. A compiler- or verifier-shaped client does not ask one
// (class, member) question at a time — it drains call sites by the
// million. LookupBatch answers a whole slice of queries per call and
// amortizes everything the one-at-a-time path pays per query:
//
//   - snapshot and column access happen once per batch, not per call;
//   - queries are radix-sorted member-major (the same axis as the
//     batched table build's layout), so warm cell reads walk each
//     member's column in ascending class order — sequential strides
//     through the dense cell array instead of cache-line-random hops;
//   - duplicate queries collapse to one cell read fanned back out
//     through the sort permutation;
//   - misses reuse one scratch stack across the whole batch (the
//     one-at-a-time fill allocates per resolve call), and the member's
//     shard lock is held across a whole run of same-member misses
//     rather than being re-acquired per query;
//   - batches past batchParallelFloor fan out over work-stealing
//     workers in contiguous stripes, like the carry path's cone
//     clearing.
//
// Results are identical, cell for cell, to looping Lookup/LookupSem —
// the differential tests pin this on every fixture and backend.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/par"
)

// Query is one (class, member) lookup request in a batch.
type Query struct {
	Class  chg.ClassID
	Member chg.MemberID
}

// batchParallelFloor is the batch size below which LookupBatch stays
// serial: splitting a batch costs goroutine wakeups and cold scratch,
// which only pay for themselves past tens of thousands of queries. A
// var so tests can force the parallel path on small inputs.
var batchParallelFloor = 1 << 16

// batchStripe is the contiguous span of queries a parallel worker
// claims per steal. Large enough that the sort inside each stripe
// still yields long same-member runs, small enough to balance skewed
// batches.
const batchStripe = 1 << 15

// batchScratchPool recycles batch scratch across calls and workers so
// steady-state batches are allocation-free.
var batchScratchPool = sync.Pool{New: func() any { return new(core.BatchScratch) }}

// LookupBatch resolves every query in qs under dominance semantics,
// appending the results to out (allocating or growing it as needed)
// and returning it; out[i] corresponds to qs[i]. Invalid queries
// (unknown class or member id) yield UndefinedResult, exactly like
// Lookup. Safe for concurrent callers, like Lookup.
func (s *Snapshot) LookupBatch(qs []Query, out []core.Result) []core.Result {
	res, _ := s.LookupBatchSemWorkers(core.SemDominance, qs, out, 0)
	return res
}

// LookupBatchSem is LookupBatch under the named backend. ok is false
// (and out is returned unchanged) when the snapshot was not built to
// serve id.
func (s *Snapshot) LookupBatchSem(id core.SemanticsID, qs []Query, out []core.Result) ([]core.Result, bool) {
	return s.LookupBatchSemWorkers(id, qs, out, 0)
}

// LookupBatchSemWorkers is LookupBatchSem with explicit parallelism:
// workers 0 picks GOMAXPROCS when the batch is large enough to split
// (batchParallelFloor) and stays serial otherwise; 1 forces serial; >1
// forces that many workers regardless of batch size.
func (s *Snapshot) LookupBatchSemWorkers(id core.SemanticsID, qs []Query, out []core.Result, workers int) ([]core.Result, bool) {
	var col *semColumn
	if id != core.SemDominance {
		if col = s.column(id); col == nil {
			return out, false
		}
	}
	need := len(out) + len(qs)
	if cap(out) < need {
		grown := make([]core.Result, len(out), need)
		copy(grown, out)
		out = grown
	}
	dst := out[len(out):need]
	out = out[:need]
	if len(qs) == 0 {
		return out, true
	}

	if workers == 0 {
		if len(qs) >= batchParallelFloor {
			workers = runtime.GOMAXPROCS(0)
		} else {
			workers = 1
		}
	}
	stripes := (len(qs) + batchStripe - 1) / batchStripe
	if workers > stripes {
		workers = stripes
	}
	if workers <= 1 {
		sc := batchScratchPool.Get().(*core.BatchScratch)
		s.lookupBatchRange(col, qs, dst, sc)
		batchScratchPool.Put(sc)
		return out, true
	}

	// Work-stealing over contiguous stripes: each worker owns its
	// stripe's disjoint sub-slices of qs and dst, so no result write
	// races another. Cell publications race benignly — both writers
	// store the same packed word under the member's shard lock.
	scs := make([]*core.BatchScratch, workers)
	for i := range scs {
		scs[i] = batchScratchPool.Get().(*core.BatchScratch)
	}
	par.For(stripes, workers, func(w, i int) {
		lo := i * batchStripe
		hi := min(lo+batchStripe, len(qs))
		s.lookupBatchRange(col, qs[lo:hi], dst[lo:hi], scs[w])
	})
	for _, sc := range scs {
		batchScratchPool.Put(sc)
	}
	return out, true
}

// lookupBatchRange answers qs into dst (len(dst) == len(qs)) for one
// backend: col == nil means the primary dominance cells. It sorts the
// queries member-major, walks the sorted order reading warm cells
// without locking, fills misses under the member's shard lock held
// across the member's whole run, and scatters results back through the
// sort permutation (duplicates share one cell read).
func (s *Snapshot) lookupBatchRange(col *semColumn, qs []Query, dst []core.Result, sc *core.BatchScratch) {
	g := s.k.Graph()
	nc := uint64(g.NumClasses())
	nm := uint64(s.numMembers)
	sentinel := nc * nm // sorts after every valid key

	keys := sc.Keys(len(qs))
	for i, q := range qs {
		if !g.Valid(q.Class) || q.Member < 0 || uint64(q.Member) >= nm {
			keys[i] = sentinel
			continue
		}
		// Member-major: all queries for one member name are adjacent,
		// ordered by class id — the sorted walk strides one column of
		// the dense cell array front to back.
		keys[i] = uint64(q.Member)*nc + uint64(q.Class)
	}
	sorted, perm := sc.Sort(len(qs), sentinel)

	cells := s.cells
	locks := &s.fillLocks
	if col != nil {
		cells = col.cells
		locks = &col.fillLocks
	}

	var held *sync.Mutex
	lastM := chg.MemberID(-1)
	for i := 0; i < len(sorted); {
		key := sorted[i]
		j := i + 1
		for j < len(sorted) && sorted[j] == key {
			j++
		}
		var r core.Result
		if key == sentinel {
			r = core.UndefinedResult()
		} else {
			c := chg.ClassID(key % nc)
			m := chg.MemberID(key / nc)
			if m != lastM {
				// Entering a new member's run: the shard lock, if one
				// is held for a miss, may no longer be the right one.
				if sh := &locks[uint32(m)%shardCount]; sh != held && held != nil {
					held.Unlock()
					held = nil
				}
				lastM = m
			}
			if w := atomic.LoadUint64(&cells[int(c)*s.numMembers+int(m)]); w != 0 {
				r = s.pool.View(core.Cell(w))
			} else {
				if held == nil {
					held = &locks[uint32(m)%shardCount]
					held.Lock()
				}
				r = s.fillBatch(cells, col, c, m, &sc.Resolve)
			}
		}
		for ; i < j; i++ {
			dst[perm[i]] = r
		}
	}
	if held != nil {
		held.Unlock()
	}
}

// fillBatch is fill/fillSem with the member's shard lock already held
// by the batch walk and, on the dominance path, the batch's reusable
// scratch stack threaded through the recursion (one frame per depth,
// reused across every miss of the batch) instead of a fresh
// allocation per resolve call.
func (s *Snapshot) fillBatch(cells []uint64, col *semColumn, c chg.ClassID, m chg.MemberID, st *core.ScratchStack) core.Result {
	depth := 0
	var lookup func(x chg.ClassID) core.Result
	lookup = func(x chg.ClassID) core.Result {
		cell := &cells[int(x)*s.numMembers+int(m)]
		if w := atomic.LoadUint64(cell); w != 0 {
			return s.pool.View(core.Cell(w))
		}
		var r core.Result
		if col == nil {
			rs := st.At(depth)
			depth++
			r = s.k.ResolveWith(x, m, lookup, rs)
			depth--
		} else {
			r = col.sem.Resolve(x, m, lookup)
		}
		atomic.StoreUint64(cell, uint64(r.Cell()))
		return r
	}
	return lookup(c)
}
