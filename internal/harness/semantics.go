package harness

// E16 measures the resolution-backend dimension introduced with
// core.Semantics: the same whole-table cache path — packed cells,
// interned payload pool, one topological fill — driven by three
// different member-lookup rules:
//
//   - dominance: the paper's Figure 8 kernel (BuildSemTable takes the
//     support-pruned word-batched fast path, so these numbers are the
//     E14 batched build seen through the generic interface);
//   - c3:        C3/MRO linearization (internal/mro) — linearize once,
//     then resolve each class by one scan of its precedence list;
//   - gxx:       the g++ 2.7.2.1 breadth-first baseline
//     (internal/gxx) — one subobject graph per context class,
//     amortized over the class's members.
//
// Alongside wall-clock per whole-table build it counts, per shape,
// how many table cells each alternative backend answers differently
// from dominance — the semantic spread the divergence lint rules and
// oraclefuzz -cross patrol.

import (
	"fmt"
	"io"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/gxx"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/mro"
)

// mroFamily is E16 and BENCH_mro.json: a realistic dense hierarchy,
// a maximally conflicting wide-MI shape (every cell dominance calls
// blue, C3 resolves — the divergence-rich regime), and the sparse
// many-member serving shape of E14/E15, each built whole under every
// backend. The backend is built afresh each step, so its full
// preprocessing (linearization, subobject graphs) is inside the
// measurement — the honest whole-table cost.
func mroFamily() Family {
	var ss []Strategy
	for _, b := range semanticsBackends {
		ss = append(ss, Strategy{string(b.id), func(g *chg.Graph, _ string) (*Session, error) {
			return settle(&Session{Step: func() int { core.BuildSemTable(b.new(g), 0); return 1 }})
		}})
	}
	grid := []Config{
		{"realistic-6x4", "dense", realistic6x4, ss},
		{"wide-mi-64", "conflict", func() *chg.Graph { return hiergen.WideMI(64, true) }, ss},
		{"sparse-200c-1000m", "sparse", sparse200, ss},
	}
	return Family{
		Name:       "mro",
		Benchmark:  "BenchmarkSemanticsTable",
		Unit:       "ns_per_op is wall time per whole-table build through core.BuildSemTable under the named backend, backend construction included; divergent cells compare each backend's table against dominance",
		Experiment: "E16",
		Configs:    grid,
		Smoke:      grid,
		Extras:     semanticsDivergences,
		Print:      printE16,
	}
}

// semGxxLimit bounds the baseline's subobject graphs; the family's
// shapes all stay far under it, so no cell degrades to FailKind.
const semGxxLimit = 1 << 18

// semanticsBackends are the backends E16 compares, dominance first
// (the baseline the others diverge from). Each id is its strategy name.
var semanticsBackends = []struct {
	id  core.SemanticsID
	new func(g *chg.Graph) core.Semantics
}{
	{core.SemDominance, func(g *chg.Graph) core.Semantics { return core.NewKernel(g) }},
	{core.SemC3, func(g *chg.Graph) core.Semantics { return mro.New(g, nil) }},
	{core.SemGxx, func(g *chg.Graph) core.Semantics { return gxx.NewBackend(g, nil, semGxxLimit) }},
}

// semanticsDivergences builds the whole table under every backend,
// records the entry count, and counts, for each non-dominance backend,
// the cells it answers differently from dominance: a different result
// kind, or both red with different declaring classes (the latter
// cannot happen for C3 — oraclefuzz -cross asserts it — but is counted
// rather than assumed).
func semanticsDivergences(r *Row, g *chg.Graph) {
	dom := core.BuildSemTable(core.NewKernel(g), 0)
	r.Entries = dom.Entries()
	r.DivergentCells = map[string]int{}
	for _, b := range semanticsBackends[1:] {
		t := core.BuildSemTable(b.new(g), 0)
		n := 0
		for c := 0; c < g.NumClasses(); c++ {
			for _, m := range dom.Members(chg.ClassID(c)) {
				rd, rt := dom.Lookup(chg.ClassID(c), m), t.Lookup(chg.ClassID(c), m)
				if rd.Kind() != rt.Kind() ||
					(rd.Kind() == core.RedKind && rd.Def().L != rt.Def().L) {
					n++
				}
			}
		}
		r.DivergentCells[string(b.id)] = n
	}
}

func printE16(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Resolution backends through one cache path: whole-table build under")
	fmt.Fprintln(w, "the Figure 8 dominance kernel, C3/MRO linearization, and the g++")
	fmt.Fprintln(w, "2.7.2.1 breadth-first baseline — all filling the same packed-cell")
	fmt.Fprintln(w, "table over an interned payload pool via core.BuildSemTable.")
	fmt.Fprintln(w)

	t := newTable("hierarchy", "|N|", "|M|", "entries", "dominance", "c3", "gxx", "c3≠dom", "gxx≠dom")
	for _, r := range rows {
		t.add(r.Name, r.Classes, r.MemberNames, r.Entries,
			r.per("dominance"), r.per("c3"), r.per("gxx"),
			r.DivergentCells["c3"], r.DivergentCells["gxx"])
	}
	t.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "divergent cells are table entries the backend answers differently")
	fmt.Fprintln(w, "from dominance (different kind; red picks never differ — the dominant")
	fmt.Fprintln(w, "definition heads every monotonic linearization). The conflict shape")
	fmt.Fprintln(w, "is the regime the dominance-vs-mro-divergence lint rule patrols.")
}
