// Benchmarks regenerating every figure and measurable claim of the
// paper, one benchmark (family) per experiment of EXPERIMENTS.md, and
// the staleness test of the BENCH_*.json records.
// Run with: go test -bench=. -benchmem
package cpplookup_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/engine"
	"cpplookup/internal/gxx"
	"cpplookup/internal/harness"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/interp"
	"cpplookup/internal/layout"
	"cpplookup/internal/paths"
	"cpplookup/internal/subobject"
	"cpplookup/internal/toposel"
)

// --- E1/E2: Figures 1 and 2 ---

func BenchmarkFigure1Lookup(b *testing.B) {
	g := hiergen.Figure1()
	top, m := g.MustID("E"), g.MustMemberID("m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(g).Lookup(top, m)
	}
}

func BenchmarkFigure2Lookup(b *testing.B) {
	g := hiergen.Figure2()
	top, m := g.MustID("E"), g.MustMemberID("m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(g).Lookup(top, m)
	}
}

// --- E3: Figure 3's whole table, plus the enumeration oracle cost ---

func BenchmarkFigure3Table(b *testing.B) {
	g := hiergen.Figure3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(g).BuildTable()
	}
}

func BenchmarkFigure3OracleEnumeration(b *testing.B) {
	g := hiergen.Figure3()
	h, foo := g.MustID("H"), g.MustMemberID("foo")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths.Lookup(g, h, foo, 0)
	}
}

// --- E4/E5: the propagation variants on Figure 3 ---

func BenchmarkFigure4PathPropagation(b *testing.B) {
	g := hiergen.Figure3()
	foo := g.MustMemberID("foo")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PropagateMember(g, foo)
	}
}

func BenchmarkFigure6AbstractionTrace(b *testing.B) {
	g := hiergen.Figure3()
	foo := g.MustMemberID("foo")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(g).TraceMember(foo)
	}
}

// --- E6: Figure 9, ours vs the two subobject-graph scans ---

func BenchmarkFigure9(b *testing.B) {
	g := hiergen.Figure9()
	top, m := g.MustID("E"), g.MustMemberID("m")
	sg, err := subobject.Build(g, top, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ours", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(g).Lookup(top, m)
		}
	})
	b.Run("gxx-bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gxx.Lookup(sg, m)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gxx.Exhaustive(sg, m)
		}
	})
}

// --- E7(a): single uncached lookup, unambiguous family (linear) ---

func BenchmarkSingleLookupUnambiguous(b *testing.B) {
	for _, d := range []int{4, 8, 16, 32, 64} {
		g := hiergen.Realistic(d, 4)
		top := hiergen.RealisticTop(g, d, 4)
		m := g.MustMemberID("rdstate")
		b.Run(fmt.Sprintf("size=%d", g.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(g).Lookup(top, m)
			}
		})
	}
}

// --- E7(b): single uncached lookup, ambiguous family (quadratic) ---

func BenchmarkSingleLookupAmbiguous(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		g := hiergen.AmbiguousLadder(n, n)
		top := hiergen.AmbiguousLadderTop(g, n)
		m := g.MustMemberID("m")
		b.Run(fmt.Sprintf("N=%d/size=%d", g.NumClasses(), g.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(g).Lookup(top, m)
			}
		})
	}
}

// --- E7(c): whole-table construction ---

func BenchmarkWholeTable(b *testing.B) {
	for _, n := range []int{100, 200, 400, 800} {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: n, MaxBases: 2, VirtualProb: 0.3,
			MemberNames: 8, MemberProb: 0.05, Seed: 7,
		})
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(g).BuildTable()
			}
		})
	}
}

// --- E8: exponential subobject graphs vs the CHG algorithm ---

func BenchmarkOursVsSubobjectBFS(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		g := hiergen.DiamondChain(k, chg.NonVirtual)
		top := hiergen.DiamondChainTop(g, k)
		m := g.MustMemberID("m")
		b.Run(fmt.Sprintf("k=%d/ours", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.New(g).Lookup(top, m)
			}
		})
		b.Run(fmt.Sprintf("k=%d/subobject-bfs", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gxx.LookupFresh(g, top, m, 1<<18); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSubobjectGraphBuild(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		g := hiergen.DiamondChain(k, chg.NonVirtual)
		top := hiergen.DiamondChainTop(g, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := subobject.Build(g, top, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: the front-end pipeline ---

func BenchmarkFrontendPipeline(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	src := harness.GenSource(g, 4000, 11)
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, errs := parser.Parse(src); len(errs) != 0 {
				b.Fatal(errs[0])
			}
		}
	})
	b.Run("full-sema", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sema.AnalyzeSource(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The replayed lookup workload under the three strategies.
	unit, err := sema.AnalyzeSource(src)
	if err != nil {
		b.Fatal(err)
	}
	ug := unit.Graph
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var qs []query
	for _, r := range unit.Resolutions {
		if m, ok := ug.MemberID(r.MemberName); ok {
			qs = append(qs, query{r.Context, m})
		}
	}
	b.Run("lookups-lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := core.New(ug, core.WithStaticRule(), core.WithTrackPaths())
			for _, q := range qs {
				a.Lookup(q.c, q.m)
			}
		}
	})
	b.Run("lookups-uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				core.New(ug, core.WithStaticRule()).Lookup(q.c, q.m)
			}
		}
	})
	scans := map[chg.ClassID]*gxx.Scan{}
	for _, q := range qs {
		if scans[q.c] == nil {
			sg, err := subobject.Build(ug, q.c, 0)
			if err != nil {
				b.Fatal(err)
			}
			scans[q.c] = gxx.NewScan(sg)
		}
	}
	b.Run("lookups-gxx-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				scans[q.c].LookupTrace(q.m)
			}
		}
	})
}

// --- E10: the top-sort shortcut ---

func BenchmarkTopoSel(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	table := core.New(g).BuildTable()
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var qs []query
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			qs = append(qs, query{chg.ClassID(c), m})
		}
	}
	b.Run("core-lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := core.New(g)
			for _, q := range qs {
				a.Lookup(q.c, q.m)
			}
		}
	})
	b.Run("top-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				toposel.Lookup(g, q.c, q.m)
			}
		}
	})
}

// --- E12: concurrent query serving from one engine snapshot ---

// BenchmarkSnapshotLookupParallel measures warm-hit throughput under
// b.RunParallel: the engine snapshot (lock-free reads) against the
// naive alternative of one Analyzer behind a global mutex. Both caches
// are warmed before the timer so the loop measures steady-state hits.
func BenchmarkSnapshotLookupParallel(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	table := core.New(g).BuildTable()
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var qs []query
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			qs = append(qs, query{chg.ClassID(c), m})
		}
	}
	b.Run("snapshot", func(b *testing.B) {
		snap := engine.NewSnapshot(g)
		for _, q := range qs {
			snap.Lookup(q.c, q.m)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := qs[i%len(qs)]
				snap.Lookup(q.c, q.m)
				i++
			}
		})
	})
	b.Run("mutex-analyzer", func(b *testing.B) {
		var mu sync.Mutex
		a := core.New(g)
		for _, q := range qs {
			a.Lookup(q.c, q.m)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := qs[i%len(qs)]
				mu.Lock()
				a.Lookup(q.c, q.m)
				mu.Unlock()
				i++
			}
		})
	})
}

// --- E13: packed cells — allocation profile of the lookup cache ---

// BenchmarkPackedCells is the E13 benchmark family; run with -benchmem.
// warm-hit must report 0 allocs/op (one array index + one atomic word
// load, decoded in registers); cold-fill and table-build show the
// amortized build cost of the packed representation.
func BenchmarkPackedCells(b *testing.B) {
	g := hiergen.Realistic(16, 3)
	table := core.New(g).BuildTable()
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var qs []query
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			qs = append(qs, query{chg.ClassID(c), m})
		}
	}
	b.Run("warm-hit", func(b *testing.B) {
		snap := engine.NewSnapshot(g)
		for _, q := range qs {
			snap.Lookup(q.c, q.m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			snap.Lookup(q.c, q.m)
		}
	})
	b.Run("cold-fill", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := engine.NewSnapshot(g)
			for _, q := range qs {
				snap.Lookup(q.c, q.m)
			}
		}
	})
	b.Run("table-build", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.NewSnapshot(g).Table()
		}
	})
}

// --- E14–E20: the benchmark families ---

// BenchmarkFamilies runs every benchmark family of internal/harness —
// the configs and strategies of E14–E20 and the BENCH_*.json records —
// as one sub-benchmark per family/config/strategy. It runs each
// family's smoke grid: the recorded grid for the fast families, a
// 20k-class config for the slow ones, so `go test -bench=.` never
// starts a 100k-class build. ns/op, B/op and allocs/op are per op the
// strategy's Step counts (a build, a round, a call site, an edit), as
// in the records `go run ./cmd/benchjson` writes.
func BenchmarkFamilies(b *testing.B) {
	for _, f := range harness.Families() {
		for _, cfg := range f.Smoke {
			var g *chg.Graph // built on first use, shared by the config's strategies
			for _, s := range cfg.Strategies {
				b.Run(f.Name+"/"+cfg.Name+"/"+s.Name, func(b *testing.B) {
					if g == nil {
						g = cfg.Make()
					}
					sess, err := s.Setup(g, b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					t := harness.Time(b.N, 0, sess.Step)
					b.ReportMetric(float64(t.NsPerOp), "ns/op")
					b.ReportMetric(float64(t.BytesPerOp), "B/op")
					b.ReportMetric(float64(t.AllocsPerOp), "allocs/op")
				})
			}
		}
	}
}

// TestBenchRecordsMatchFamilies checks the registry — unique names,
// files and benchmark ids, a strategy for every config, one experiment
// of E14–E20 per family — and that every committed BENCH_*.json record
// still has its family's benchmark id, config names and strategy names
// (run `go run ./cmd/benchjson -family NAME` after changing a family).
// Timings are not compared.
func TestBenchRecordsMatchFamilies(t *testing.T) {
	seen := map[string]string{}
	unique := func(kind, v, family string) {
		if prev, dup := seen[kind+" "+v]; dup {
			t.Errorf("families %s and %s share %s %q", prev, family, kind, v)
		}
		seen[kind+" "+v] = family
	}
	for _, f := range harness.Families() {
		unique("name", f.Name, f.Name)
		unique("file", f.File(), f.Name)
		unique("benchmark id", f.Benchmark, f.Name)
		unique("experiment", f.Experiment, f.Name)
		switch f.Experiment {
		case "E14", "E15", "E16", "E17", "E18", "E19", "E20":
		default:
			t.Errorf("%s: experiment %q is not one of E14–E20", f.Name, f.Experiment)
		}
		for _, grid := range [][]harness.Config{f.Configs, f.Smoke, f.Shown} {
			for _, cfg := range grid {
				if len(cfg.Strategies) == 0 {
					t.Errorf("%s/%s has no strategy", f.Name, cfg.Name)
				}
			}
		}

		data, err := os.ReadFile(f.File())
		if err != nil {
			t.Errorf("%s: %v (run `go run ./cmd/benchjson -family %s`)", f.Name, err, f.Name)
			continue
		}
		var rec harness.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Errorf("%s: %v", f.File(), err)
			continue
		}
		if rec.Benchmark != f.Benchmark {
			t.Errorf("%s records %q, want %q", f.File(), rec.Benchmark, f.Benchmark)
		}
		want := map[string][]string{}
		for _, cfg := range f.Configs {
			for _, s := range cfg.Strategies {
				want[cfg.Name] = append(want[cfg.Name], s.Name)
			}
		}
		got := map[string][]string{}
		for _, r := range rec.Configs {
			got[r.Name] = []string{}
			for s := range r.Strategies {
				got[r.Name] = append(got[r.Name], s)
			}
			sort.Strings(got[r.Name])
		}
		for _, names := range want {
			sort.Strings(names)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s is stale (run `go run ./cmd/benchjson -family %s`):\n  records %v\n  family  %v",
				f.File(), f.Name, got, want)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationNoKilling(b *testing.B) {
	g := hiergen.DiamondChain(12, chg.Virtual)
	m := g.MustMemberID("m")
	b.Run("with-killing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PropagateMember(g, m)
		}
	})
	b.Run("no-killing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.PropagateMemberNoKill(g, m, 1<<22); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationFullPaths(b *testing.B) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 600, MaxBases: 2, VirtualProb: 0.3,
		MemberNames: 8, MemberProb: 0.05, Seed: 13,
	})
	b.Run("abstractions-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(g).BuildTable()
		}
	})
	b.Run("with-paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(g, core.WithTrackPaths()).BuildTable()
		}
	})
}

func BenchmarkEagerVsLazy(b *testing.B) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 500, MaxBases: 2, VirtualProb: 0.3,
		MemberNames: 8, MemberProb: 0.05, Seed: 17,
	})
	table := core.New(g).BuildTable()
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var all []query
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			all = append(all, query{chg.ClassID(c), m})
		}
	}
	for _, q := range []int{1, 256, len(all)} {
		qs := all[:q]
		b.Run(fmt.Sprintf("queries=%d/eager", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb := core.New(g).BuildTable()
				for _, x := range qs {
					tb.Lookup(x.c, x.m)
				}
			}
		})
		b.Run(fmt.Sprintf("queries=%d/lazy", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := core.New(g)
				for _, x := range qs {
					a.Lookup(x.c, x.m)
				}
			}
		})
	}
}

// Static-rule overhead on a static-heavy hierarchy.
func BenchmarkStaticRule(b *testing.B) {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 400, MaxBases: 3, VirtualProb: 0.3,
		MemberNames: 6, MemberProb: 0.2, StaticProb: 0.5, Seed: 23,
	})
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(g).BuildTable()
		}
	})
	b.Run("static-rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(g, core.WithStaticRule()).BuildTable()
		}
	})
}

// --- E11: object model (layout + interpreter) ---

func BenchmarkLayoutConstruction(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		g := hiergen.DiamondChain(k, chg.NonVirtual)
		top := hiergen.DiamondChainTop(g, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := layout.Of(g, top, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	g := hiergen.Realistic(16, 3)
	top := hiergen.RealisticTop(g, 16, 3)
	b.Run("realistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := layout.Of(g, top, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInterpreterDispatch(b *testing.B) {
	const src = `
struct Base { virtual int who() { return 1; } };
struct Left : virtual Base {};
struct Right : virtual Base { virtual int who() { return 2; } };
struct Join : Left, Right {};
Join j;
Base *p;
int got;
main() {
  p = &j;
  got = p->who();
}
`
	m, err := interp.New(src, interp.WithMaxSteps(1<<31-1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Execution(b *testing.B) {
	src := `
struct S              { int m; };
struct A : virtual S  { int m; };
struct B : virtual S  { int m; };
struct C : virtual A, virtual B { int m; };
struct D : C {};
struct E : virtual A, virtual B, D {};
main() {
  E e;
s2:
  e.m = 10;
}
`
	m, err := interp.New(src, interp.WithMaxSteps(1<<31-1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
	}
}
