package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, workers, want int }{
		{10, 3, 3},
		{2, 8, 2},
		{0, 4, 1},
		{5, 1, 1},
		{1 << 20, 0, procs},
		{1 << 20, -3, procs},
	} {
		if got := Workers(tc.n, tc.workers); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// Every index runs exactly once, with a worker id inside the clamped
// range, for any worker count.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 5, 64} {
			hits := make([]atomic.Int32, n)
			nw := Workers(n, workers)
			var bad atomic.Int32
			For(n, workers, func(w, i int) {
				if w < 0 || w >= nw {
					bad.Add(1)
				}
				hits[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d workers=%d: worker id outside [0, %d)", n, workers, nw)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// One worker runs inline, in order, so per-worker state needs no
// goroutine at all.
func TestForSingleWorkerInOrder(t *testing.T) {
	var order []int
	For(5, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("worker %d on the inline path", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}

// Per-worker counters indexed by worker sum to the total without
// atomics — the pattern the carry copy and cone clear use.
func TestForPerWorkerCounters(t *testing.T) {
	const n = 10000
	nw := Workers(n, 4)
	counts := make([]int, nw)
	For(n, 4, func(w, i int) { counts[w] += i % 3 })
	total := 0
	for _, c := range counts {
		total += c
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i % 3
	}
	if total != want {
		t.Fatalf("per-worker counters sum to %d, want %d", total, want)
	}
}
