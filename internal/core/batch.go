package core

// Reusable, caller-owned scratch for a hot loop that must not allocate
// per item: BatchScratch radix-sorts (class, member) keys member-major,
// which internal/devirt's ResolveBatch uses to deduplicate call sites.

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
