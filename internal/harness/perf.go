package harness

// This file holds the measured experiments E7–E10 and the ablations
// A1–A4. None of the absolute numbers are expected to match 1997
// hardware; the *shapes* — linear vs quadratic vs exponential, who
// wins and where — are what EXPERIMENTS.md compares against the
// paper's claims.

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/engine"
	"cpplookup/internal/gxx"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
	"cpplookup/internal/subobject"
	"cpplookup/internal/toposel"
)

// RunE7 measures the Section 5 complexity claims.
func RunE7(w io.Writer) error {
	fmt.Fprintln(w, "  (a) single lookup, no ambiguity anywhere: claimed O(|N|+|E|)")
	t1 := newTable("|N|", "|E|", "size", "t/lookup", "t/size (ns)")
	for _, d := range []int{4, 8, 16, 32, 64} {
		g := hiergen.Realistic(d, 4)
		top := hiergen.RealisticTop(g, d, 4)
		m := g.MustMemberID("rdstate")
		per := timeOp(func() {
			// A fresh analyzer per query: the cost of one uncached
			// lookup, which must walk every ancestor once.
			core.New(g).Lookup(top, m)
		})
		size := g.Size()
		t1.add(g.NumClasses(), g.NumEdges(), size, per,
			float64(per.Nanoseconds())/float64(size))
	}
	t1.write(w)
	fmt.Fprintln(w, "  → t/size should be roughly flat (linear in |N|+|E|).")

	fmt.Fprintln(w)
	fmt.Fprintln(w, "  (b) single lookup, ambiguous blue sets of width Θ(|N|): claimed O(|N|·(|N|+|E|))")
	t2 := newTable("|N|", "size", "t/lookup", "t/size (ns)", "t/(size·|N|) (ns)")
	for _, n := range []int{8, 16, 32, 64} {
		g := hiergen.AmbiguousLadder(n, n)
		top := hiergen.AmbiguousLadderTop(g, n)
		m := g.MustMemberID("m")
		per := timeOp(func() {
			core.New(g).Lookup(top, m)
		})
		size := g.Size()
		t2.add(g.NumClasses(), size, per,
			float64(per.Nanoseconds())/float64(size),
			float64(per.Nanoseconds())/float64(size*g.NumClasses()))
	}
	t2.write(w)
	fmt.Fprintln(w, "  → t/size grows with |N| while t/(size·|N|) flattens (quadratic).")

	fmt.Fprintln(w)
	fmt.Fprintln(w, "  (c) whole table, no ambiguity: claimed O((|M|+|N|)·(|N|+|E|))")
	t3 := newTable("|N|", "|M|", "entries", "t/table", "t/entry")
	for _, n := range []int{100, 200, 400, 800} {
		g := hiergen.Random(hiergen.RandomConfig{
			Classes: n, MaxBases: 2, VirtualProb: 0.3,
			MemberNames: 8, MemberProb: 0.05, Seed: 7,
		})
		var entries int
		per := timeOp(func() {
			table := core.New(g).BuildTable()
			entries = table.Entries()
		})
		t3.add(g.NumClasses(), g.NumMemberNames(), entries, per,
			time.Duration(int64(per)/int64(max(entries, 1))))
	}
	t3.write(w)
	return nil
}

// RunE8 measures the exponential gap of Section 7.1.
func RunE8(w io.Writer) error {
	fmt.Fprintln(w, "  diamond-chain family: |N| = 3k+1 classes, subobject graph 2^k+…")
	t := newTable("k", "|N|+|E|", "subobjects", "ours t/lookup", "subobject-BFS t/lookup")
	for _, k := range []int{2, 4, 6, 8, 10, 12, 14, 16, 18} {
		g := hiergen.DiamondChain(k, chg.NonVirtual)
		top := hiergen.DiamondChainTop(g, k)
		m := g.MustMemberID("m")
		count := subobject.Count(g, top)

		ours := timeOp(func() {
			core.New(g).Lookup(top, m)
		})

		bfs := "DNF (graph too large)"
		if count.IsInt64() && count.Int64() <= 1<<17 {
			per := timeOp(func() {
				if _, err := gxx.LookupFresh(g, top, m, 1<<18); err != nil {
					panic(err)
				}
			})
			bfs = formatDuration(per)
		}
		t.add(k, g.Size(), count.String(), ours, bfs)
	}
	t.write(w)
	fmt.Fprintln(w, "  → the CHG algorithm stays polynomial while any subobject-graph walk grows as 2^k.")
	return nil
}

// GenSource renders a hierarchy as parseable source plus a driver
// function performing `accesses` member accesses on variables of
// random classes — the synthetic translation unit of E9.
func GenSource(g *chg.Graph, accesses int, seed int64) string {
	table := core.New(g).BuildTable()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	if err := g.WriteSource(&sb); err != nil {
		panic(err)
	}
	sb.WriteString("void driver() {\n")
	// Declare one variable per class.
	for c := 0; c < g.NumClasses(); c++ {
		fmt.Fprintf(&sb, "\t%s v%d;\n", g.Name(chg.ClassID(c)), c)
	}
	emitted := 0
	for guard := 0; emitted < accesses && guard < accesses*20; guard++ {
		c := rng.Intn(g.NumClasses())
		ms := table.Members(chg.ClassID(c))
		if len(ms) == 0 {
			continue
		}
		m := ms[rng.Intn(len(ms))]
		fmt.Fprintf(&sb, "\tv%d.%s;\n", c, g.MemberName(m))
		emitted++
	}
	sb.WriteString("}\n")
	return sb.String()
}

// RunE9 estimates the share of front-end time spent in member lookup
// (Stroustrup's "as much as 15%" remark, Section 7.1).
func RunE9(w io.Writer) error {
	g := hiergen.Realistic(16, 3)
	const accesses = 4000
	src := GenSource(g, accesses, 11)
	fmt.Fprintf(w, "  translation unit: %d classes, %d member accesses, %d bytes\n",
		g.NumClasses(), accesses, len(src))

	parseT := timeOp(func() {
		if _, errs := parser.Parse(src); len(errs) != 0 {
			panic(errs[0])
		}
	})

	var unit *sema.Unit
	semaT := timeOp(func() {
		u, err := sema.AnalyzeSource(src)
		if err != nil {
			panic(err)
		}
		unit = u
	})

	// Replay exactly the lookups sema performed, under three
	// strategies.
	type query struct {
		c chg.ClassID
		m chg.MemberID
	}
	var qs []query
	for _, r := range unit.Resolutions {
		if m, ok := unit.Graph.MemberID(r.MemberName); ok {
			qs = append(qs, query{r.Context, m})
		}
	}
	ug := unit.Graph

	lazyT := timeOp(func() {
		a := core.New(ug, core.WithStaticRule(), core.WithTrackPaths())
		for _, q := range qs {
			a.Lookup(q.c, q.m)
		}
	})
	freshT := timeOp(func() {
		for _, q := range qs {
			core.New(ug, core.WithStaticRule()).Lookup(q.c, q.m)
		}
	})
	// g++ strategy: subobject graphs, with their scan orders, cached
	// per context class.
	scans := map[chg.ClassID]*gxx.Scan{}
	for _, q := range qs {
		if scans[q.c] == nil {
			sg, err := subobject.Build(ug, q.c, 0)
			if err != nil {
				return err
			}
			scans[q.c] = gxx.NewScan(sg)
		}
	}
	gxxT := timeOp(func() {
		for _, q := range qs {
			scans[q.c].LookupTrace(q.m)
		}
	})

	other := semaT - lazyT
	if other < 0 {
		other = 0
	}
	fmt.Fprintf(w, "  parse: %s   sema total: %s   non-lookup sema: %s\n",
		formatDuration(parseT), formatDuration(semaT), formatDuration(other))
	t := newTable("lookup strategy", "lookup time", "share of front end")
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"memoized lazy (this paper)", lazyT},
		{"uncached per access", freshT},
		{"g++-style subobject BFS (graphs cached)", gxxT},
	} {
		total := parseT + other + row.d
		t.add(row.name, row.d, fmt.Sprintf("%.1f%%", 100*float64(row.d)/float64(total)))
	}
	t.write(w)
	fmt.Fprintln(w, "  → lookup is a first-order share of front-end time; the paper cites ~15% in a production compiler.")
	return nil
}

// RunE10 measures the Section 7.2 shortcut.
func RunE10(w io.Writer) error {
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
	coreT := timeOp(func() {
		a := core.New(g)
		for _, q := range qs {
			a.Lookup(q.c, q.m)
		}
	})
	topoT := timeOp(func() {
		for _, q := range qs {
			toposel.Lookup(g, q.c, q.m)
		}
	})
	agree := 0
	for _, q := range qs {
		want := table.Lookup(q.c, q.m)
		got, ok := toposel.Lookup(g, q.c, q.m)
		if want.Found() && ok && got == want.Class() {
			agree++
		}
	}
	fmt.Fprintf(w, "  unambiguous program (%d lookups): core %s, top-sort %s, agreement %d/%d\n",
		len(qs), formatDuration(coreT), formatDuration(topoT), agree, len(qs))

	// Ambiguity-rich program: count silent wrong answers.
	ga := hiergen.Random(hiergen.RandomConfig{
		Classes: 400, MaxBases: 3, VirtualProb: 0.2,
		MemberNames: 6, MemberProb: 0.15, Seed: 3,
	})
	ta := core.New(ga).BuildTable()
	ambiguous, silent := 0, 0
	for c := 0; c < ga.NumClasses(); c++ {
		for _, m := range ta.Members(chg.ClassID(c)) {
			r := ta.Lookup(chg.ClassID(c), m)
			if r.Ambiguous() {
				ambiguous++
				if _, ok := toposel.Lookup(ga, chg.ClassID(c), m); ok {
					silent++
				}
			}
		}
	}
	fmt.Fprintf(w, "  ambiguity-rich program: %d ambiguous lookups; top-sort silently \"resolves\" %d of them (%.0f%%)\n",
		ambiguous, silent, 100*float64(silent)/float64(max(ambiguous, 1)))
	fmt.Fprintln(w, "  → the shortcut is fast but, as §7.2 notes, only sound when ambiguity is impossible; detecting ambiguity is where the real cost lives.")
	return nil
}

// RunA1 compares killing propagation with the no-kill naive variant.
func RunA1(w io.Writer) error {
	t := newTable("family", "defs propagated (no kill)", "defs propagated (kill)", "reduction")
	families := []struct {
		name string
		g    *chg.Graph
	}{
		{"figure 3 (foo+bar)", hiergen.Figure3()},
		{"virtual diamond chain k=12", hiergen.DiamondChain(12, chg.Virtual)},
		{"random |N|=60", hiergen.Random(hiergen.RandomConfig{
			Classes: 60, MaxBases: 2, VirtualProb: 0.5,
			MemberNames: 2, MemberProb: 0.1, Seed: 21,
		})},
	}
	for _, fam := range families {
		totalNoKill, totalKill := 0, 0
		for m := 0; m < fam.g.NumMemberNames(); m++ {
			_, defs, err := core.PropagateMemberNoKill(fam.g, chg.MemberID(m), 1<<22)
			if err != nil {
				return err
			}
			totalNoKill += defs
			flows := core.PropagateMember(fam.g, chg.MemberID(m))
			for c := range flows {
				totalKill += len(flows[c].Propagated)
			}
		}
		t.add(fam.name, totalNoKill, totalKill,
			fmt.Sprintf("%.1f×", float64(totalNoKill)/float64(max(totalKill, 1))))
	}
	t.write(w)
	g := hiergen.DiamondChain(18, chg.Virtual)
	if _, defs, err := core.PropagateMemberNoKill(g, g.MustMemberID("m"), 1<<22); err == nil {
		t2 := newTable("family", "no-kill defs", "note")
		t2.add("virtual diamond chain k=18", defs, "2^k paths propagated without killing")
		t2.write(w)
	}
	g24 := hiergen.DiamondChain(24, chg.Virtual)
	if _, _, err := core.PropagateMemberNoKill(g24, g24.MustMemberID("m"), 1<<22); err != nil {
		fmt.Fprintf(w, "  k=24 without killing: %v\n", err)
	}
	fmt.Fprintln(w, "  → killing (Corollary 1) is what keeps the propagation phase polynomial.")
	return nil
}

// RunA2 measures the overhead of carrying full definition paths.
func RunA2(w io.Writer) error {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 600, MaxBases: 2, VirtualProb: 0.3,
		MemberNames: 8, MemberProb: 0.05, Seed: 13,
	})
	abstract := timeOp(func() { core.New(g).BuildTable() })
	withPaths := timeOp(func() { core.New(g, core.WithTrackPaths()).BuildTable() })
	t := newTable("variant", "t/table", "relative")
	t.add("(L, V) abstractions only", abstract, "1.00×")
	t.add("+ full definition paths", withPaths,
		fmt.Sprintf("%.2f×", float64(withPaths)/float64(abstract)))
	t.write(w)
	fmt.Fprintln(w, "  → path tracking costs a constant factor, as §4 predicts (\"without affecting the complexity\").")
	return nil
}

// RunA3 compares eager tabulation against the lazy memoized variant
// at different query densities.
func RunA3(w io.Writer) error {
	g := hiergen.Random(hiergen.RandomConfig{
		Classes: 500, MaxBases: 2, VirtualProb: 0.3,
		MemberNames: 8, MemberProb: 0.05, Seed: 17,
	})
	table := core.New(g).BuildTable()
	var all []struct {
		c chg.ClassID
		m chg.MemberID
	}
	for c := 0; c < g.NumClasses(); c++ {
		for _, m := range table.Members(chg.ClassID(c)) {
			all = append(all, struct {
				c chg.ClassID
				m chg.MemberID
			}{chg.ClassID(c), m})
		}
	}
	t := newTable("queries", "eager (build + query)", "lazy (memoized)")
	for _, q := range []int{1, 16, 256, len(all)} {
		qs := all
		if q < len(all) {
			qs = all[:q]
		}
		eager := timeOp(func() {
			tb := core.New(g).BuildTable()
			for _, x := range qs {
				tb.Lookup(x.c, x.m)
			}
		})
		lazy := timeOp(func() {
			a := core.New(g)
			for _, x := range qs {
				a.Lookup(x.c, x.m)
			}
		})
		t.add(q, eager, lazy)
	}
	t.write(w)
	fmt.Fprintln(w, "  → lazy wins when few entries are queried; the gap closes as query density approaches the full table.")
	return nil
}

// RunA4 measures the incremental-maintenance extension: after an edit
// to a workspace (internal/incremental) bound to an engine, how much
// of the warm snapshot the carried republish keeps and refills, and
// how edit+relookup compares to a batch rebuild.
func RunA4(w io.Writer) error {
	const depth = 200
	build := func() (*incremental.Workspace, []chg.ClassID) {
		ws := incremental.New()
		prev, err := ws.AddClass("C0", nil)
		if err != nil {
			panic(err)
		}
		if err := ws.AddMember(prev, chg.Member{Name: "m", Kind: chg.Method}); err != nil {
			panic(err)
		}
		ids := []chg.ClassID{prev}
		for i := 1; i < depth; i++ {
			cur, err := ws.AddClass(fmt.Sprintf("C%d", i), []incremental.BaseDecl{{Class: prev}})
			if err != nil {
				panic(err)
			}
			ids = append(ids, cur)
			prev = cur
		}
		return ws, ids
	}

	// relookup queries m at every class of the chain and returns how
	// many cells the queries filled.
	relookup := func(s *engine.Snapshot, ids []chg.ClassID) int {
		before := s.CachedEntries()
		m := s.Graph().MustMemberID("m")
		for _, c := range ids {
			s.Lookup(c, m)
		}
		return s.CachedEntries() - before
	}
	sync := func(b *engine.WorkspaceBinding) *engine.Snapshot {
		s, err := b.Sync()
		if err != nil {
			panic(err)
		}
		return s
	}

	// Recomputation cone: edit at depth d → depth-d entries refilled,
	// the rest carried warm.
	ws, ids := build()
	b, snap, err := engine.New().BindWorkspace("a4", ws)
	if err != nil {
		return err
	}
	relookup(snap, ids)
	t := newTable("edit at depth", "entries carried", "entries invalidated", "entries refilled")
	for _, d := range []int{50, 150, 199} {
		if err := ws.AddMember(ids[d], chg.Member{Name: "m", Kind: chg.Method}); err != nil {
			return err
		}
		snap = sync(b)
		st := snap.Carry()
		t.add(d, st.Carried, st.Invalidated, relookup(snap, ids))
		if err := ws.RemoveMember(ids[d], "m"); err != nil {
			return err
		}
		relookup(sync(b), ids)
	}
	t.write(w)

	// Throughput: toggle an override at depth 150 and re-query all.
	incT := timeOp(func() {
		w2, ids2 := build()
		b2, s, err := engine.New().BindWorkspace("a4", w2)
		if err != nil {
			panic(err)
		}
		relookup(s, ids2)
		w2.AddMember(ids2[150], chg.Member{Name: "m", Kind: chg.Method})
		relookup(sync(b2), ids2)
	})
	batchT := timeOp(func() {
		w2, ids2 := build()
		g, err := w2.Snapshot()
		if err != nil {
			panic(err)
		}
		a := core.New(g)
		m := g.MustMemberID("m")
		for _, c := range ids2 {
			a.Lookup(c, m)
		}
		w2.AddMember(ids2[150], chg.Member{Name: "m", Kind: chg.Method})
		g, err = w2.Snapshot()
		if err != nil {
			panic(err)
		}
		a = core.New(g)
		m = g.MustMemberID("m")
		for _, c := range ids2 {
			a.Lookup(c, m)
		}
	})
	t2 := newTable("strategy", "build + edit + relookup")
	t2.add("incremental workspace + warm carry", incT)
	t2.add("batch rebuild per edit", batchT)
	t2.write(w)
	fmt.Fprintln(w, "  → an edit refills only its descendant cone for that member name; batch rebuilds pay the whole hierarchy.")
	return nil
}
