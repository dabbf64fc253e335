package engine

import (
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// allocQueries returns every valid (class, member) pair of g.
func allocQueries(g *chg.Graph) [][2]int {
	var qs [][2]int
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			qs = append(qs, [2]int{c, m})
		}
	}
	return qs
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestWarmLookupZeroAllocs pins the core promise of the packed-cell
// cache: once a cell is filled, answering it is an array index plus an
// atomic word load — zero heap allocations per hit, for inline results
// and pooled payloads alike.
func TestWarmLookupZeroAllocs(t *testing.T) {
	optSets := map[string][]core.Option{
		"plain":        nil,
		"static+paths": {core.WithStaticRule(), core.WithTrackPaths()},
	}
	g := hiergen.Realistic(8, 3)
	qs := allocQueries(g)
	for name, opts := range optSets {
		t.Run(name, func(t *testing.T) {
			snap := NewSnapshot(g, opts...)
			for _, q := range qs {
				snap.Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
			}
			var sink core.Result
			avg := testing.AllocsPerRun(100, func() {
				for _, q := range qs {
					sink = snap.Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
				}
			})
			_ = sink
			if avg != 0 {
				t.Fatalf("warm Lookup allocated %.2f objects per %d-query sweep, want 0", avg, len(qs))
			}
		})
	}
}

// TestColdFillAllocsPerSnapshot gates the miss path: cold-filling
// every cell of a fresh snapshot allocates a small constant per
// snapshot (payload-pool growth), not one or more objects per miss.
// A miss borrows pooled scratch frames, and the dominance fill never
// hands its recursive closure to an interface, so nothing escapes per
// miss. The fill is checked on a dominance-only snapshot and on one
// that also serves C3 and gxx.
func TestColdFillAllocsPerSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts, so pooled scratch reallocates")
	}
	const runs = 20
	// maxAllocs is far below the number of misses: a fill allocating
	// per miss blows through it by two orders of magnitude.
	const maxAllocs = 8
	g := hiergen.Realistic(8, 3)
	qs := allocQueries(g)
	optSets := map[string][]core.Option{
		"single":        nil,
		"single c3+gxx": {core.WithSemantics(core.SemC3, core.SemGxx)},
	}
	for name, opts := range optSets {
		t.Run(name, func(t *testing.T) {
			snaps := make([]*Snapshot, runs+1)
			for i := range snaps {
				snaps[i] = NewSnapshot(g, opts...)
			}
			next := 0
			avg := testing.AllocsPerRun(runs, func() {
				for _, q := range qs {
					snaps[next].Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
				}
				next++
			})
			for _, s := range snaps {
				if got := s.CachedEntries(); got != len(qs) {
					t.Fatalf("fill left %d of %d cells cached", got, len(qs))
				}
			}
			if avg > maxAllocs {
				t.Fatalf("cold fill of %d cells allocated %.1f objects per snapshot, want at most %d", len(qs), avg, maxAllocs)
			}
		})
	}
}

// BenchmarkWarmHit measures a steady-state cache hit. Run with
// -benchmem: the interesting number is 0 allocs/op.
func BenchmarkWarmHit(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	snap := NewSnapshot(g)
	qs := allocQueries(g)
	for _, q := range qs {
		snap.Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		snap.Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
	}
}

// BenchmarkColdFill measures filling a fresh snapshot's every cell —
// the other end of the trade: each miss resolves via the kernel and
// publishes one packed word.
func BenchmarkColdFill(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	qs := allocQueries(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := NewSnapshot(g)
		for _, q := range qs {
			snap.Lookup(chg.ClassID(q[0]), chg.MemberID(q[1]))
		}
	}
}

// BenchmarkTableBuild measures the eager whole-table build over packed
// cells, via the snapshot's Table accessor.
func BenchmarkTableBuild(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSnapshot(g).Table()
	}
}
