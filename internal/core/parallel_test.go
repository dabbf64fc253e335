package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

func tablesEqual(t *testing.T, g *chg.Graph, a, b *Table, label string) {
	t.Helper()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			ra := a.Lookup(chg.ClassID(c), chg.MemberID(m))
			rb := b.Lookup(chg.ClassID(c), chg.MemberID(m))
			if ra.Kind() != rb.Kind() || ra.Def() != rb.Def() || len(ra.Blue()) != len(rb.Blue()) {
				t.Fatalf("%s: tables differ at (%s, %s): %s vs %s", label,
					g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)),
					ra.Format(g), rb.Format(g))
			}
			for i := range ra.Blue() {
				if ra.Blue()[i] != rb.Blue()[i] {
					t.Fatalf("%s: blue sets differ at (%s, %s)", label,
						g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)))
				}
			}
			if len(ra.Path()) != len(rb.Path()) {
				t.Fatalf("%s: paths differ at (%s, %s)", label,
					g.Name(chg.ClassID(c)), g.MemberName(chg.MemberID(m)))
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for i := 0; i < 25; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(60), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 1 + rng.Intn(12), MemberProb: 0.3,
			StaticProb: 0.3, Seed: rng.Int63(),
		})
		for _, workers := range []int{0, 1, 2, 7} {
			serial := New(g).BuildTable()
			parallel := BuildSemTable(NewKernel(g), workers)
			tablesEqual(t, g, serial, parallel, fmt.Sprintf("iter %d workers %d", i, workers))
		}
		// With options on.
		serial := New(g, WithStaticRule(), WithTrackPaths()).BuildTable()
		parallel := BuildSemTable(NewKernel(g, WithStaticRule(), WithTrackPaths()), 4)
		tablesEqual(t, g, serial, parallel, fmt.Sprintf("iter %d opts", i))
	}
}

func TestParallelOnFigures(t *testing.T) {
	for _, g := range []*chg.Graph{hiergen.Figure1(), hiergen.Figure2(), hiergen.Figure3(), hiergen.Figure9()} {
		tablesEqual(t, g, New(g).BuildTable(), BuildSemTable(NewKernel(g), 3), "figure")
	}
}

func TestParallelMoreWorkersThanMembers(t *testing.T) {
	g := hiergen.Figure1() // one member name
	tablesEqual(t, g, New(g).BuildTable(), BuildSemTable(NewKernel(g), 16), "overprovisioned")
}

func TestMemberIndex(t *testing.T) {
	ms := []chg.MemberID{1, 3, 5, 9}
	for m, want := range map[chg.MemberID]int{1: 0, 3: 1, 5: 2, 9: 3, 0: -1, 2: -1, 10: -1} {
		if got := memberIndex(ms, m); got != want {
			t.Errorf("memberIndex(%d) = %d, want %d", m, got, want)
		}
	}
	if memberIndex(nil, 1) != -1 {
		t.Error("empty list should miss")
	}
}

func BenchmarkBuildSemTableWorkers(b *testing.B) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 800, MaxBases: 3, VirtualProb: 0.3,
		MemberNames: 64, MemberProb: 0.25, Seed: 5,
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildSemTable(NewKernel(g), workers)
			}
		})
	}
}
