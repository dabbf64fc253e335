package harness

// E12 measures what the engine layer exists for: serving one compiled
// hierarchy to many concurrent query goroutines. The contenders are
// the obvious baseline (the single-threaded memoizing Analyzer behind
// a global mutex) and an engine Snapshot (sharded cache, lock-free
// reads). Both answer the same query stream; the snapshot's advantage
// is that warm hits never contend.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// RunE12 measures concurrent lookup serving against one snapshot.
func RunE12(w io.Writer) error {
	g := hiergen.Realistic(16, 3)
	eng := engine.New()
	if _, err := eng.Register("lib", g); err != nil {
		return err
	}

	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	table := core.NewKernel(g).BuildTable()
	var qs []query
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			qs = append(qs, query{chg.ClassID(c), m})
		}
	}
	fmt.Fprintf(w, "  hierarchy: |N|=%d |E|=%d, %d distinct queries, GOMAXPROCS=%d\n",
		g.NumClasses(), g.NumEdges(), len(qs), runtime.GOMAXPROCS(0))

	// run partitions the query stream over `workers` goroutines, each
	// sweeping its share `rounds` times, and returns the wall-clock
	// time per lookup.
	run := func(workers, rounds int, lookup func(query) core.Result) time.Duration {
		return Time(1, 0, func() int {
			var wg sync.WaitGroup
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := wk; i < len(qs); i += workers {
							lookup(qs[i])
						}
					}
				}(wk)
			}
			wg.Wait()
			return rounds * len(qs)
		}).PerOp()
	}

	const rounds = 50
	t := newTable("goroutines", "mutex-guarded analyzer", "engine snapshot", "speedup")
	for _, workers := range []int{1, 2, 4, 8} {
		// Baseline: the single-threaded Analyzer made "safe" the naive
		// way — one big lock around every lookup.
		var mu sync.Mutex
		a := core.New(g)
		mutexT := run(workers, rounds, func(q query) core.Result {
			mu.Lock()
			defer mu.Unlock()
			return a.Lookup(q.c, q.m)
		})

		// Fresh snapshot per row so each measurement pays its own
		// cache warm-up, same as the analyzer baseline does.
		snap, ok := eng.Snapshot("lib")
		if !ok {
			return fmt.Errorf("snapshot disappeared")
		}
		if workers > 1 {
			var err error
			if snap, err = eng.Update("lib", g); err != nil {
				return err
			}
		}
		snapT := run(workers, rounds, func(q query) core.Result {
			return snap.Lookup(q.c, q.m)
		})

		t.add(workers, mutexT, snapT,
			fmt.Sprintf("%.2f×", float64(mutexT)/float64(max64(int64(snapT), 1))))
	}
	t.write(w)
	fmt.Fprintln(w, "  → a warm snapshot hit is one array index plus one atomic load, so it beats the")
	fmt.Fprintln(w, "    locked analyzer even uncontended. On a single-core machine (GOMAXPROCS=1)")
	fmt.Fprintln(w, "    that per-hit cost is the whole story; with real parallelism the gap widens")
	fmt.Fprintln(w, "    further, since the global lock serializes every hit while snapshot reads")
	fmt.Fprintln(w, "    never contend.")
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
