package semantics

import (
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// The whole-table build must agree cell-for-cell with per-entry lazy
// resolution (core.NewFor's memoized Resolve) under every registered
// backend — the dominance kernel through the offset block fill, C3 and
// gxx through the per-chunk ResolveClass path — across chunk regimes,
// on fixtures and seeded random graphs.
func TestStreamedMatchesSemTableAllBackends(t *testing.T) {
	type namedGraph struct {
		name string
		g    *chg.Graph
	}
	graphs := []namedGraph{
		{"fig2", hiergen.Figure2()},
		{"fig9", hiergen.Figure9()},
		{"realistic", hiergen.Realistic(3, 2)},
		{"sparse", hiergen.SparseMembers(60, 400, 3, 17)},
	}
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 6; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(40), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 1 + rng.Intn(300), MemberProb: 0.08,
			StaticProb: 0.2, Seed: rng.Int63(),
		})
		graphs = append(graphs, namedGraph{"random", g})
	}
	for _, tc := range graphs {
		n := int64(tc.g.NumClasses())
		entries := core.MeasureTableBuildWork(tc.g).Entries
		for _, id := range IDs() {
			s, err := New(id, tc.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := core.NewFor(s)
			for _, budget := range []int64{1, 40 * n, core.DefaultStreamBudget} {
				s2, err := New(id, tc.g, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, st := core.BuildSemTableStreamed(s2, core.StreamOptions{
					Workers: 2, MemoryBudget: budget,
				})
				if st.Entries != entries {
					t.Fatalf("[%s/%s] streamed entries = %d, want %d", tc.name, id, st.Entries, entries)
				}
				for c := 0; c < tc.g.NumClasses(); c++ {
					for m := 0; m < tc.g.NumMemberNames(); m++ {
						rw := want.Lookup(chg.ClassID(c), chg.MemberID(m))
						rg := got.Lookup(chg.ClassID(c), chg.MemberID(m))
						if !rw.Equal(rg) {
							t.Fatalf("[%s/%s budget=%d] (%s, %s): %s vs %s", tc.name, id, budget,
								tc.g.Name(chg.ClassID(c)), tc.g.MemberName(chg.MemberID(m)),
								rw.Format(tc.g), rg.Format(tc.g))
						}
					}
				}
			}
		}
	}
}
