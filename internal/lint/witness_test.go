package lint

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/gxx"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/paths"
	"cpplookup/internal/subobject"
)

type fixture struct {
	name string
	g    *chg.Graph
}

// witnessFixtures are the hierarchies the witness tests run over:
// many sparse member names, random DAGs with static members, and the
// six-level diamond towers whose classes carry many Blue cells each.
func witnessFixtures() []fixture {
	var fs []fixture
	add := func(name string, g *chg.Graph) { fs = append(fs, fixture{name, g}) }
	add("figure9", hiergen.Figure9())
	for _, seed := range []int64{1, 2} {
		add(fmt.Sprintf("sparse-%d", seed), hiergen.SparseMembers(200, 900, 3, seed))
	}
	for _, seed := range []int64{3, 4, 5} {
		add(fmt.Sprintf("random-%d", seed), hiergen.Random(hiergen.RandomConfig{
			Classes: 60, MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 12, MemberProb: 0.15, StaticProb: 0.3, Seed: seed,
		}))
	}
	// Small dense hierarchies: many Blue cells per class, and static
	// members that the g++ rows skip under Definition 17.
	for seed := range int64(24) {
		add(fmt.Sprintf("small-%d", seed), hiergen.Random(hiergen.RandomConfig{
			Classes: 12, MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 3, MemberProb: 0.5, StaticProb: 0.2, Seed: seed,
		}))
	}
	for _, seed := range []int64{1, 2, 4, 7} {
		cfg := hiergen.GiantDefaults(40)
		cfg.Seed = seed
		add(fmt.Sprintf("towers-%d", seed), hiergen.Giant(cfg))
	}
	return fs
}

// perCellRun is the reference: lint as it ran before witness work went
// per class. Every Blue cell counts its class's paths in big integers
// and enumerates Defns(C, m) on its own (DefnsPath grouped into
// ≈-classes, then the pairwise maximal set), every class row recounts
// the whole graph's subobjects, and every g++ cell runs a fresh
// breadth-first scan. Rules whose work did not change are called as
// they are.
func perCellRun(t *testing.T, snap *engine.Snapshot, opts Options) []diag.Diagnostic {
	t.Helper()
	r, err := tableRunner(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := r.g
	var out []diag.Diagnostic
	var w walker
	for m := range g.NumMemberNames() {
		m := chg.MemberID(m)
		for _, c := range g.Topo() {
			res := r.look(c, m)
			if res.Kind() == core.Undefined {
				continue
			}
			if r.enabled[AmbiguousMember] && r.ambiguityFormed(c, m, res) {
				d := r.ambiguousMember(c, m, res)
				d.Witness = perCellAmbiguityWitness(r, c, m, res)
				out = append(out, d)
			}
			if r.enabled[DominanceShadowing] {
				out = r.dominanceShadowing(&w, out, c, m)
			}
			if r.enabled[DeadMember] {
				out = r.deadMember(&w, out, c, m)
			}
			if r.enabled[DominanceVsMroDivergence] {
				out = r.dominanceVsMroDivergence(out, c, m, res)
			}
		}
	}
	for c := range g.NumClasses() {
		if r.enabled[GxxDivergence] {
			out = perCellGxxDivergence(r, out, chg.ClassID(c))
		}
	}
	for _, ds := range r.checkStructure(upTo[chg.ClassID](g.NumClasses())) {
		out = append(out, ds...)
	}
	diag.Sort(out)
	return out
}

func perCellAmbiguityWitness(r *runner, c chg.ClassID, m chg.MemberID, res core.Result) *diag.Witness {
	g := r.g
	all := make([]*big.Int, g.NumClasses())
	for _, x := range g.Topo() {
		n := big.NewInt(1)
		for _, e := range g.DirectBases(x) {
			n.Add(n, all[e.Base])
		}
		all[x] = n
	}
	if all[c].Cmp(big.NewInt(int64(r.pathLimit))) > 0 {
		return r.abstractWitness(res)
	}
	// Defns(C, m) by Definition 7: DefnsPath grouped by ≈, classes in
	// order of first appearance.
	var defns []paths.EquivClass
	for _, p := range paths.DefnsPath(g, c, m, r.pathLimit) {
		found := false
		for i := range defns {
			if paths.Equivalent(defns[i].Rep, p) {
				defns[i].Members = append(defns[i].Members, p)
				found = true
				break
			}
		}
		if !found {
			defns = append(defns, paths.EquivClass{Rep: p, Members: []paths.Path{p}})
		}
	}
	// maximal(Defns) by Definition 16.
	var maximal []paths.EquivClass
	for i, u := range defns {
		dominated := false
		for j, v := range defns {
			if i != j && paths.Dominates(v.Rep, u.Rep) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, u)
		}
	}
	if len(maximal) < 2 {
		return r.abstractWitness(res)
	}
	i, j := 0, 1
search:
	for a := 0; a < len(maximal); a++ {
		for b := a + 1; b < len(maximal); b++ {
			if maximal[a].Ldc() != maximal[b].Ldc() {
				i, j = a, b
				break search
			}
		}
	}
	pair := []paths.Path{shortestMember(maximal[i]), shortestMember(maximal[j])}
	paths.SortPaths(pair)
	return &diag.Witness{
		Paths:   []string{renderPath(g, pair[0].Nodes()), renderPath(g, pair[1].Nodes())},
		Classes: []string{g.Name(pair[0].Ldc()), g.Name(pair[1].Ldc())},
	}
}

func perCellGxxDivergence(r *runner, out []diag.Diagnostic, c chg.ClassID) []diag.Diagnostic {
	g := r.g
	if subobject.Count(g, c).Cmp(big.NewInt(int64(r.subLimit))) > 0 {
		return out
	}
	sg, err := subobject.Build(g, c, r.subLimit)
	if err != nil {
		return out
	}
	for _, m := range r.members(c) {
		paper := r.look(c, m)
		if r.staticRuleApplies(paper, m) {
			continue
		}
		gres, tr := gxx.LookupTrace(sg, m)
		var msg string
		w := &diag.Witness{Visited: gres.Visited}
		name := func(x chg.ClassID) string { return g.Name(x) + "::" + g.MemberName(m) }
		switch {
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.ReportedAmbiguous:
			msg = fmt.Sprintf("g++ 2.7.2.1 falsely reports lookup(%s, %s) as ambiguous; the dominant definition is %s",
				g.Name(c), g.MemberName(m), name(paper.Def().L))
			w.Paper = fmt.Sprintf("resolves to %s (%s)", name(paper.Def().L), paper.Format(g))
			a, b := tr.Conflict[0], tr.Conflict[1]
			w.Gxx = fmt.Sprintf("breadth-first scan met the incomparable definitions %s and %s and quit",
				name(sg.Class(a)), name(sg.Class(b)))
			w.Classes = []string{g.Name(sg.Class(a)), g.Name(sg.Class(b))}
			w.Paths = []string{
				renderPath(g, sg.Subobject(a).Path.Nodes()),
				renderPath(g, sg.Subobject(b).Path.Nodes()),
			}
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.Resolved && gres.Class != paper.Def().L:
			msg = fmt.Sprintf("g++ 2.7.2.1 resolves lookup(%s, %s) to %s, but the dominant definition is %s",
				g.Name(c), g.MemberName(m), name(gres.Class), name(paper.Def().L))
			w.Paper = "resolves to " + name(paper.Def().L)
			w.Gxx = "resolves to " + name(gres.Class)
			w.Paths = []string{renderPath(g, sg.Subobject(gres.Subobject).Path.Nodes())}
		case paper.Kind() == core.BlueKind && gres.Outcome != gxx.ReportedAmbiguous:
			msg = fmt.Sprintf("g++ 2.7.2.1 does not report lookup(%s, %s) as ambiguous, but it is (%s)",
				g.Name(c), g.MemberName(m), paper.Format(g))
			w.Paper = paper.Format(g)
			w.Gxx = gres.Outcome.String()
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.NotFound:
			msg = fmt.Sprintf("g++ 2.7.2.1 does not find lookup(%s, %s), but it resolves to %s",
				g.Name(c), g.MemberName(m), name(paper.Def().L))
			w.Paper = "resolves to " + name(paper.Def().L)
			w.Gxx = gres.Outcome.String()
		default:
			continue
		}
		out = append(out, r.diag(GxxDivergence, r.classPos(c), c, g.MemberName(m), msg, w))
	}
	return out
}

// TestWitnessesMatchPerCell is the witness differential: lint.Run with
// per-class path enumeration, run-wide path and subobject counts and
// one g++ scan order per class must produce exactly the diagnostics —
// every field, witness included, and every fingerprint — of the
// per-cell reference, serially and with four workers, with the
// default limits and with limits low enough to force the
// abstraction fallback and the g++ skip.
func TestWitnessesMatchPerCell(t *testing.T) {
	// What the reference produced, so the test can tell its fixtures
	// reach every witness shape.
	var pathWitnesses, abstractions, gxxFindings int
	for _, f := range witnessFixtures() {
		snap := snapshot(f.g)
		for _, limits := range []struct{ path, sub int }{{0, 0}, {24, 24}} {
			want := perCellRun(t, snap, Options{PathLimit: limits.path, SubobjectLimit: limits.sub})
			for _, d := range want {
				switch {
				case d.Rule == GxxDivergence:
					gxxFindings++
				case d.Rule != AmbiguousMember:
				case len(d.Witness.Paths) == 2:
					pathWitnesses++
				case len(d.Witness.Abstractions) > 0:
					abstractions++
				}
			}
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/limits=%d,%d/workers=%d", f.name, limits.path, limits.sub, workers)
				got, err := Run(snap, Options{Workers: workers, PathLimit: limits.path, SubobjectLimit: limits.sub})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d diagnostics, reference %d", label, len(got), len(want))
					continue
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s: diagnostic %d\n got %+v %+v\nwant %+v %+v",
							label, i, got[i], got[i].Witness, want[i], want[i].Witness)
					}
					if diag.Fingerprint(got[i]) != diag.Fingerprint(want[i]) {
						t.Errorf("%s: diagnostic %d: fingerprint differs", label, i)
					}
				}
			}
		}
	}
	if pathWitnesses == 0 || abstractions == 0 || gxxFindings == 0 {
		t.Errorf("fixtures yield %d path witnesses, %d abstraction fallbacks and %d gxx-divergence findings; each shape needs coverage",
			pathWitnesses, abstractions, gxxFindings)
	}
	t.Logf("%d path witnesses, %d abstraction fallbacks, %d gxx-divergence findings", pathWitnesses, abstractions, gxxFindings)
}

// TestWitnessWorkPerClass is the host-independent work gate: a run
// enumerates the paths of a class at most once, however many of its
// cells need an ambiguity witness, and builds a g++ scan order at most
// once per class, however many members its row has. It pins the exact
// counts: one enumeration per class with a formed ambiguity and few
// enough paths, one scan order per class with a small enough subobject
// graph. On these fixtures a slide back to per-cell work would count
// more.
func TestWitnessWorkPerClass(t *testing.T) {
	var classes, blueCells, rowCells int
	for _, f := range witnessFixtures() {
		g := f.g
		classes += g.NumClasses()
		r, err := tableRunner(snapshot(g), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ds := r.run()

		witnessed := map[string]bool{}
		paths := subobject.PathCounts(g, r.pathLimit)
		for _, d := range byRule(ds, AmbiguousMember) {
			blueCells++
			if c, _ := g.ID(d.Class); paths[c] <= r.pathLimit {
				witnessed[d.Class] = true
			}
		}
		scanned := 0
		subs := subobject.Counts(g, r.subLimit)
		for c := range g.NumClasses() {
			if subs[c] <= r.subLimit {
				scanned++
				rowCells += len(r.members(chg.ClassID(c)))
			}
		}
		if n := r.enumerations.Load(); n != int64(len(witnessed)) {
			t.Errorf("%s: %d path enumerations, want one per witnessed class (%d)", f.name, n, len(witnessed))
		}
		if n := r.scanOrders.Load(); n != int64(scanned) {
			t.Errorf("%s: %d scan orders, want one per class within the subobject limit (%d)", f.name, n, scanned)
		}
	}
	// The gate is only as strong as its fixtures: per-cell work must
	// outnumber per-class work on them.
	if blueCells <= classes || rowCells <= classes {
		t.Errorf("fixtures have %d Blue cells and %d row cells over %d classes; per-cell work would not show", blueCells, rowCells, classes)
	}
}
