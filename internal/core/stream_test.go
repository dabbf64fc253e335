package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// streamBudgets spans the interesting regimes: a budget so small every
// chunk is one block (the floor), mid-range budgets forcing several
// chunks, and one large enough to hold everything (degenerating to the
// batched build's single window).
func streamBudgets(g *chg.Graph) []int64 {
	n := int64(g.NumClasses())
	return []int64{1, 24 * n, 80 * n, DefaultStreamBudget}
}

// The streaming build must be cell-for-cell identical to BuildTable on
// randomized hierarchies, under every option combination, chunk
// regime, and worker count.
func TestStreamedMatchesBuildTableOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	optCombos := [][]Option{
		nil,
		{WithStaticRule()},
		{WithTrackPaths()},
		{WithStaticRule(), WithTrackPaths()},
	}
	for i := 0; i < 12; i++ {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: 5 + rng.Intn(50), MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 1 + rng.Intn(200), MemberProb: 0.1,
			StaticProb: 0.3, Seed: rng.Int63(),
		})
		for _, opts := range optCombos {
			want := NewKernel(g, opts...).BuildTable()
			for _, budget := range streamBudgets(g) {
				for _, workers := range []int{1, 3} {
					got, st := BuildSemTableStreamed(NewKernel(g, opts...), StreamOptions{
						Workers: workers, MemoryBudget: budget,
					})
					cellsEqual(t, g, want, got, "streamed")
					if st.Entries != want.Entries() {
						t.Fatalf("StreamStats.Entries = %d, want %d", st.Entries, want.Entries())
					}
					if st.Chunks < 1 || st.ChunkBlocks < 1 {
						t.Fatalf("degenerate stats: %+v", st)
					}
				}
			}
		}
	}
}

func TestStreamedOnFigures(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *chg.Graph
	}{
		{"fig1", hiergen.Figure1()},
		{"fig2", hiergen.Figure2()},
		{"fig3", hiergen.Figure3()},
		{"fig9", hiergen.Figure9()},
		{"chain", hiergen.Chain(12, true)},
		{"wideMI", hiergen.WideMI(8, true)},
		{"ladder", hiergen.AmbiguousLadder(5, 2)},
		{"realistic", hiergen.Realistic(3, 2)},
		{"diamondchain", hiergen.DiamondChain(6, chg.Virtual)},
	} {
		want := NewKernel(tc.g).BuildTable()
		for _, budget := range streamBudgets(tc.g) {
			got, _ := BuildSemTableStreamed(NewKernel(tc.g), StreamOptions{Workers: 2, MemoryBudget: budget})
			cellsEqual(t, tc.g, want, got, tc.name)
		}
	}
}

// A one-byte budget exercises the hard floor: one block per chunk, one
// worker's scratch, WorkingSetBytes reporting the overrun honestly.
func TestStreamedBudgetFloor(t *testing.T) {
	g := hiergen.SparseMembers(80, 200, 3, 11)
	want := NewKernel(g).BuildTable()
	got, st := BuildSemTableStreamed(NewKernel(g), StreamOptions{Workers: 4, MemoryBudget: 1})
	cellsEqual(t, g, want, got, "floor")
	if st.ChunkBlocks != 1 {
		t.Errorf("ChunkBlocks = %d, want 1 at the floor", st.ChunkBlocks)
	}
	if st.Chunks != st.Blocks {
		t.Errorf("Chunks = %d, want %d (one block per chunk)", st.Chunks, st.Blocks)
	}
	if st.WorkingSetBytes <= st.BudgetBytes {
		t.Errorf("floor build should report its working set (%d) exceeding the 1-byte budget", st.WorkingSetBytes)
	}
}

// Under a feasible budget the reported working set must respect it.
func TestStreamedWorkingSetWithinBudget(t *testing.T) {
	g := hiergen.SparseMembers(100, 900, 3, 7)
	// Two workers' scratch (2·64·8·n) plus 80·n bytes, ten blocks of
	// the chunk matrix (8·n each): forces ⌈15/10⌉ = 2 chunks.
	budget := int64(2*64*8*100 + 5*16*100)
	_, st := BuildSemTableStreamed(NewKernel(g), StreamOptions{Workers: 2, MemoryBudget: budget})
	if st.WorkingSetBytes > budget {
		t.Errorf("WorkingSetBytes = %d > budget %d", st.WorkingSetBytes, budget)
	}
	if st.Chunks < 2 {
		t.Errorf("expected a multi-chunk build, got %d chunks", st.Chunks)
	}
}

// Whole-table builds and lazy fills resolve every backend but the
// kernel through ClassResolver; a backend that is neither is a
// programming error, and both panic naming it, with one message.
func TestStreamedPanicsOnPerEntryBackend(t *testing.T) {
	s := struct{ Semantics }{NewKernel(hiergen.Figure2())}
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	built := recovered(func() { BuildSemTableStreamed(s, StreamOptions{}) })
	if built == nil || !strings.Contains(fmt.Sprint(built), string(SemDominance)) {
		t.Errorf("BuildSemTableStreamed recovered %v, want a panic naming %s", built, SemDominance)
	}
	looked := recovered(func() { NewFor(s).Lookup(0, 0) })
	if fmt.Sprint(looked) != fmt.Sprint(built) {
		t.Errorf("NewFor(s).Lookup recovered %v, want %v", looked, built)
	}
}

func TestStreamedNoMembers(t *testing.T) {
	b := chg.NewBuilder()
	a := b.Class("A")
	c := b.Class("C")
	b.Base(c, a, chg.NonVirtual)
	g := b.MustBuild()
	tab, st := BuildSemTableStreamed(NewKernel(g), StreamOptions{})
	if st.Chunks != 0 || st.Entries != 0 {
		t.Errorf("empty-universe stats = %+v", st)
	}
	if r := tab.Lookup(c, 0); r.Kind() != Undefined {
		t.Errorf("lookup in empty table = %v", r.Kind())
	}
}

// Two goroutines streaming from one shared kernel must not interfere
// (the pool is the shared mutable state); run under -race.
func TestStreamedConcurrentSharedKernel(t *testing.T) {
	g := hiergen.SparseMembers(60, 150, 3, 33)
	k := NewKernel(g, WithStaticRule())
	want := k.BuildTable()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _ := BuildSemTableStreamed(k, StreamOptions{
				Workers: 1 + i%2, MemoryBudget: int64(1+i) * 24 * int64(g.NumClasses()),
			})
			cellsEqual(t, g, want, got, "concurrent")
		}(i)
	}
	wg.Wait()
}

// The streaming build must also hold cell-for-cell against the
// paper-literal BuildTable on a virtual-heavy graph: half the edges
// are virtual, so most Lemma-4 probes search a nonempty sorted
// virtual-base list.
func TestStreamedSparseClosureMode(t *testing.T) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 70, MaxBases: 3, VirtualProb: 0.5,
		MemberNames: 150, MemberProb: 0.1, StaticProb: 0.2, Seed: 321,
	})
	want := NewKernel(g).BuildTable()
	got, _ := BuildSemTableStreamed(NewKernel(g), StreamOptions{Workers: 2, MemoryBudget: 24 * 70})
	cellsEqual(t, g, want, got, "virtual-heavy")
}
