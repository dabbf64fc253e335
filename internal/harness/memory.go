package harness

// E13 measures what the packed-cell refactor buys in memory: the
// engine's lookup cache stores one uint64 word per (class, member)
// entry, with the rare payload-carrying results (blue sets, static
// sets, tracked paths) interned once in a per-snapshot pool. The
// baseline it is compared against is the representation the cache used
// before the refactor — one heap-allocated wide result struct behind a
// pointer per entry, payload slices owned per result, nothing shared.

import (
	"fmt"
	"io"
	"runtime"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// pointerCellResult reconstructs the pre-refactor cache entry: the
// result fields spread over a wide struct, held behind its own pointer,
// with its own copies of the payload slices.
type pointerCellResult struct {
	Kind      core.Kind
	Def       core.Def
	StaticSet []chg.ClassID
	StaticRed []chg.ClassID
	Blue      []core.Def
	Path      []chg.ClassID
}

// retainedBytes garbage-collects, runs build, garbage-collects again,
// and returns what build left live on the heap alongside the built
// value (which the caller must keep reachable while reading the
// number).
func retainedBytes(build func() interface{}) (interface{}, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return v, 0
	}
	return v, after.HeapAlloc - before.HeapAlloc
}

func copyClassIDs(xs []chg.ClassID) []chg.ClassID {
	if xs == nil {
		return nil
	}
	return append([]chg.ClassID(nil), xs...)
}

func copyDefs(xs []core.Def) []core.Def {
	if xs == nil {
		return nil
	}
	return append([]core.Def(nil), xs...)
}

// RunE13 compares the filled lookup cache's retained heap bytes under
// the packed-word representation against the pointer-cell baseline,
// and verifies that a warm snapshot hit allocates nothing.
//
// Two option sets bound the result. Under the default kernel nearly
// every result is an inline word (red and undefined encode with no
// payload), so the packed cache is close to its 8-bytes-per-entry
// floor. WithStaticRule+WithTrackPaths is the representation's worst
// case: every defined result carries a path payload, so most cells
// point into the pool and the saving shrinks to whatever interning
// dedups.
func RunE13(w io.Writer) error {
	optSets := []struct {
		name string
		opts []core.Option
	}{
		{"plain", nil},
		{"static+paths", []core.Option{core.WithStaticRule(), core.WithTrackPaths()}},
	}

	t := newTable("hierarchy", "options", "entries", "pointer cells", "packed cells", "ratio",
		"pool entries", "pool hits", "warm allocs/op")
	for _, os := range optSets {
		opts := os.opts
		for _, depth := range []int{8, 16, 24} {
			g := hiergen.Realistic(depth, 3)
			numC, numM := g.NumClasses(), g.NumMemberNames()
			entries := numC * numM

			// Packed: a fresh snapshot, every entry filled. The
			// measured bytes include the kernel and the payload pool —
			// everything the cache needs to answer queries.
			built, packedB := retainedBytes(func() interface{} {
				snap := engine.NewSnapshot(g, opts...)
				for c := 0; c < numC; c++ {
					for m := 0; m < numM; m++ {
						snap.Lookup(chg.ClassID(c), chg.MemberID(m))
					}
				}
				return snap
			})
			snap := built.(*engine.Snapshot)

			// Baseline: the same results, one wide struct behind a
			// pointer per entry with per-result payload copies — what
			// []atomic.Pointer[Result] retained before cells were
			// packed.
			ptrBuilt, pointerB := retainedBytes(func() interface{} {
				cells := make([]*pointerCellResult, entries)
				for c := 0; c < numC; c++ {
					for m := 0; m < numM; m++ {
						r := snap.Lookup(chg.ClassID(c), chg.MemberID(m))
						cells[c*numM+m] = &pointerCellResult{
							Kind:      r.Kind(),
							Def:       r.Def(),
							StaticSet: copyClassIDs(r.StaticSet()),
							StaticRed: copyClassIDs(r.StaticRed()),
							Blue:      copyDefs(r.Blue()),
							Path:      copyClassIDs(r.Path()),
						}
					}
				}
				return cells
			})

			// Warm hits: every cell is filled, so the sweep below must
			// not allocate at all. Mallocs is a precise counter, not a
			// sampled one, so any per-hit allocation shows up as ≥ 1.0
			// here.
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for c := 0; c < numC; c++ {
				for m := 0; m < numM; m++ {
					snap.Lookup(chg.ClassID(c), chg.MemberID(m))
				}
			}
			runtime.ReadMemStats(&ms1)
			warmAllocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(entries)

			st := snap.Pool().Stats()
			t.add(fmt.Sprintf("Realistic(%d,3) |N|=%d", depth, numC), os.name, entries,
				formatBytes(pointerB), formatBytes(packedB),
				fmt.Sprintf("%.2f×", float64(pointerB)/float64(max(packedB, 1))),
				st.Entries, st.Hits, fmt.Sprintf("%.2f", warmAllocs))
			runtime.KeepAlive(ptrBuilt)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "  → an entry is one uint64 word; payloads appear once in the pool no matter how")
	fmt.Fprintln(w, "    many cells share them (pool hits = dedup reuses). The pointer-cell baseline")
	fmt.Fprintln(w, "    pays a heap object per entry plus private payload slices. Under the default")
	fmt.Fprintln(w, "    kernel nearly every cell is an inline word, so the cache sits near its")
	fmt.Fprintln(w, "    8-bytes-per-entry floor; with every option on, most cells carry a pooled")
	fmt.Fprintln(w, "    payload and the two representations converge. Warm hits decode the word in")
	fmt.Fprintln(w, "    registers: 0 allocs/op.")
	return nil
}

func formatBytes(b uint64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
}
