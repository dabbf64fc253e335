// Package par is the one work-stealing loop every parallel phase
// shares: the table build's block and class fills, the engine's batch
// stripes and carry copy/clear, the devirtualizer's group chunks, and
// the linter's per-member and per-class rule fan-out.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the worker count For(n, workers, …) runs with:
// workers ≤ 0 means GOMAXPROCS, and the count is clamped to n (at
// least 1). Callers size their per-worker scratch with it.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// For calls body(worker, i) once for every i in [0, n). Workers claim
// indices from a shared atomic counter, so a slow index never holds up
// the rest; worker is in [0, Workers(n, workers)) and identifies the
// goroutine, so body may use per-worker scratch and counters indexed
// by it without synchronization. With one worker the loop runs inline
// on the calling goroutine, in index order.
func For(n, workers int, body func(worker, i int)) {
	workers = Workers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(w, i)
			}
		}(w)
	}
	wg.Wait()
}
