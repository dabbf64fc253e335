package chg

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// randomBuilder returns an unbuilt seeded DAG of n classes: class i
// names 1–3 random earlier classes as direct bases, about a third of
// the edges virtual.
func randomBuilder(seed int64, n int) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Class("C" + strconv.Itoa(i))
	}
	for i := 1; i < n; i++ {
		seen := map[ClassID]bool{}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			base := ClassID(rng.Intn(i))
			if seen[base] {
				continue
			}
			seen[base] = true
			kind := NonVirtual
			if rng.Intn(3) == 0 {
				kind = Virtual
			}
			b.Base(ClassID(i), base, kind)
		}
	}
	return b
}

// refAncestors is the test-local reference for the base relation:
// anc[d][x] iff x reaches d by a nonempty path, by DFS up the direct
// bases of each class.
func refAncestors(g *Graph) [][]bool {
	n := g.NumClasses()
	anc := make([][]bool, n)
	for d := range anc {
		anc[d] = make([]bool, n)
		stack := []ClassID{ClassID(d)}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.DirectBases(c) {
				if !anc[d][e.Base] {
					anc[d][e.Base] = true
					stack = append(stack, e.Base)
				}
			}
		}
	}
	return anc
}

// refVirtualBases is the definition-level reference for the
// virtual-base lists: x is a virtual base of d iff some virtual edge
// x→y has y = d or y a base of d.
func refVirtualBases(g *Graph, anc [][]bool) [][]ClassID {
	out := make([][]ClassID, g.NumClasses())
	for d := range out {
		for y := 0; y < g.NumClasses(); y++ {
			if y != d && !anc[d][y] {
				continue
			}
			for _, e := range g.DirectBases(ClassID(y)) {
				if e.Kind == Virtual {
					out[d] = append(out[d], e.Base)
				}
			}
		}
		slices.Sort(out[d])
		out[d] = slices.Compact(out[d])
	}
	return out
}

// TestClosuresMatchReference pins every closure accessor against the
// test-local references on seeded random DAGs. Probing the
// virtual-base lists must not build a matrix; the bases and
// descendants matrices appear only on first use.
func TestClosuresMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		g := randomBuilder(seed, 60).MustBuild()
		n := g.NumClasses()
		anc := refAncestors(g)
		virt := refVirtualBases(g, anc)

		for d := 0; d < n; d++ {
			if got := g.VirtualBases(ClassID(d)); !slices.Equal(got, virt[d]) {
				t.Fatalf("seed %d: VirtualBases(%d) = %v, want %v", seed, d, got, virt[d])
			}
			for b := 0; b < n; b++ {
				want := slices.Contains(virt[d], ClassID(b))
				if got := g.IsVirtualBase(ClassID(b), ClassID(d)); got != want {
					t.Fatalf("seed %d: IsVirtualBase(%d, %d) = %v, want %v", seed, b, d, got, want)
				}
			}
		}
		if g.bases != nil || g.descendants != nil {
			t.Fatal("probing virtual bases materialized a matrix")
		}
		if g.IsVirtualBase(Omega, 0) || g.IsVirtualBase(0, Omega) {
			t.Fatal("Omega operand should never be a virtual base")
		}

		visited := g.Bases(0).Clone()
		visited.Clear()
		var queue []ClassID
		for d := 0; d < n; d++ {
			var bases, desc []int
			for x := 0; x < n; x++ {
				if got := g.IsBase(ClassID(x), ClassID(d)); got != anc[d][x] {
					t.Fatalf("seed %d: IsBase(%d, %d) = %v, want %v", seed, x, d, got, anc[d][x])
				}
				if anc[d][x] {
					bases = append(bases, x)
				}
				if anc[x][d] {
					desc = append(desc, x)
				}
			}
			if got := g.Bases(ClassID(d)).Elems(); !slices.Equal(got, bases) {
				t.Fatalf("seed %d: Bases(%d) = %v, want %v", seed, d, got, bases)
			}
			if got := g.Descendants(ClassID(d)).Elems(); !slices.Equal(got, desc) {
				t.Fatalf("seed %d: Descendants(%d) = %v, want %v", seed, d, got, desc)
			}
			var walked []int
			queue = g.EachDescendant(ClassID(d), visited, queue, func(c ClassID) { walked = append(walked, int(c)) })
			slices.Sort(walked)
			if !slices.Equal(walked, desc) {
				t.Fatalf("seed %d: EachDescendant(%d) visited %v, want %v", seed, d, walked, desc)
			}
			if !visited.Empty() {
				t.Fatalf("seed %d: EachDescendant(%d) left %v marked", seed, d, visited)
			}
		}
	}
}

// TestClosuresConcurrentMaterialize hammers the lazily built closure
// accessors from many goroutines; under -race this checks the
// sync.Once gating that lint's parallel rule workers rely on.
func TestClosuresConcurrentMaterialize(t *testing.T) {
	g := randomBuilder(5, 80).MustBuild()
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			ok := true
			for i := 0; i < g.NumClasses(); i++ {
				c := ClassID(i)
				switch w % 4 {
				case 0:
					ok = ok && g.Bases(c).Count() >= 0
				case 1:
					ok = ok && g.Descendants(c).Count() >= 0
				case 2:
					ok = ok && !g.IsBase(c, c)
				case 3:
					_ = g.IsVirtualBase(c, ClassID((i+1)%g.NumClasses()))
				}
			}
			done <- ok
		}(w)
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent accessor reported impossible value")
		}
	}
}

// TestBuildAllocationBounded gates Build's allocation on a 16,000-class
// random DAG, counted by the runtime rather than timed: the
// virtual-base lists and the topological order cost a few bytes per
// class, where one |N|²-bit closure matrix alone would be 32 MB.
func TestBuildAllocationBounded(t *testing.T) {
	b := randomBuilder(3, 16000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := b.MustBuild()
	runtime.ReadMemStats(&after)
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Build of %d classes allocated %d bytes, want under %d", g.NumClasses(), got, limit)
	}
}
