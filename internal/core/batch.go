package core

// Reusable, caller-owned scratch for hot loops that must not allocate
// per item:
//
//   - ResolveScratch / Kernel.ResolveWith expose the resolve
//     temporaries the batched table build already reuses internally,
//     so a lazy fill (internal/engine's snapshot miss path) can
//     recycle its buffers across misses instead of allocating per
//     cell;
//   - ScratchStack hands out one ResolveScratch per recursion depth,
//     because a lazy fill's resolve calls back into resolve for its
//     base classes and a mid-flight scratch must not be clobbered;
//   - BatchScratch owns the key/permutation buffers of a radix sort
//     that groups (class, member) keys member-major, which
//     internal/devirt's ResolveBatch uses to deduplicate call sites.

import (
	"cpplookup/internal/chg"
)

// ResolveScratch is an opaque, caller-owned buffer set for
// Kernel.ResolveWith. The zero value is ready to use; a scratch
// reused across calls keeps its capacity, which is what makes
// steady-state fills allocation-free. A scratch is
// single-goroutine state, and a resolve call that recursively
// re-enters the kernel (a lazy fill's get callback) must use a
// different scratch per recursion depth — see ScratchStack. Nothing a
// resolve call returns aliases its scratch.
type ResolveScratch struct {
	sc resolveScratch
}

// ResolveWith is Resolve with a caller-owned scratch: identical
// results, but the temporaries the computation needs live in rs and
// survive for the next call instead of being allocated per call.
func (k *Kernel) ResolveWith(c chg.ClassID, m chg.MemberID, get func(chg.ClassID) Result, rs *ResolveScratch) Result {
	return k.resolve(c, m, get, &rs.sc)
}

// ScratchStack hands out one ResolveScratch per recursion depth of a
// lazy fill. resolve's rotating buffers are mid-flight state: when a
// resolve at depth d calls get and get recursively resolves a base
// class, the nested call needs scratch frame d+1 — frame d is still
// holding the outer call's partial join. Frames are created on first
// use and reused for every later fill at the same depth, so a stack
// reused across a million misses allocates a handful of frames total
// (one per hierarchy-depth level), not one per miss.
type ScratchStack struct {
	frames []*ResolveScratch
}

// At returns the scratch frame for recursion depth d (0-based),
// growing the stack on first use.
func (st *ScratchStack) At(d int) *ResolveScratch {
	for len(st.frames) <= d {
		st.frames = append(st.frames, &ResolveScratch{})
	}
	return st.frames[d]
}

// BatchScratch holds the reusable buffers of a sorted batch: the
// packed keys, the permutation that maps sorted positions back to
// caller positions, and the radix sort's ping-pong copies of both.
// The zero value is ready to use; buffers grow to the largest batch
// seen and are retained. A BatchScratch is single-goroutine state.
type BatchScratch struct {
	keys, keysAlt []uint64
	perm, permAlt []int32
}

// Keys returns a length-n buffer for the caller to fill with packed
// query keys (one uint64 per query, any packing whose order is the
// desired sort order). The buffer is owned by the scratch and
// invalidated by the next Keys or Sort call.
func (sc *BatchScratch) Keys(n int) []uint64 {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
		sc.keysAlt = make([]uint64, n)
		sc.perm = make([]int32, n)
		sc.permAlt = make([]int32, n)
	}
	return sc.keys[:n]
}

// Sort stable-sorts the first n keys written via Keys, returning the
// sorted keys and the permutation back to caller order:
// sorted[i] == keys[perm[i]], with perm preserving input order among
// equal keys. The sort is an LSD radix over bytes, and only the bytes
// maxKey needs are visited — a batch over a 10M-cell snapshot sorts
// in three passes, not eight. Both returned slices alias scratch
// memory and are invalidated by the next Keys or Sort call.
func (sc *BatchScratch) Sort(n int, maxKey uint64) ([]uint64, []int32) {
	a, b := sc.keys[:n], sc.keysAlt[:n]
	pa, pb := sc.perm[:n], sc.permAlt[:n]
	for i := range pa {
		pa[i] = int32(i)
	}
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		var count [256]int
		for _, k := range a {
			count[uint8(k>>shift)]++
		}
		if count[uint8(maxKey>>shift)] == n {
			// Every key shares this digit only when it equals maxKey's;
			// cheaper to test one bucket than to copy 12 bytes per key.
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range a {
			d := uint8(k >> shift)
			j := count[d]
			count[d]++
			b[j] = k
			pb[j] = pa[i]
		}
		a, b = b, a
		pa, pb = pb, pa
	}
	return a, pa
}
