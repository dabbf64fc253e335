package lint

import (
	"fmt"
	"sort"
	"strings"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/diag"
	"cpplookup/internal/gxx"
	"cpplookup/internal/par"
	"cpplookup/internal/subobject"
)

// topoOrdered expands a reachability bit set (a row of the graph's
// bases or descendants closure) into class ids sorted by topological
// position — the iteration order the whole-hierarchy rules report
// witnesses in. Rules used to rediscover these sets by scanning the
// full Topo order with IsBase probes, O(|N|) per declaration; the
// precomputed closures make each rule touch only its actual cone.
func topoOrdered(g *chg.Graph, set *bitset.Set) []chg.ClassID {
	out := make([]chg.ClassID, 0, set.Count())
	set.ForEach(func(i int) { out = append(out, chg.ClassID(i)) })
	sort.Slice(out, func(i, j int) bool { return g.TopoPos(out[i]) < g.TopoPos(out[j]) })
	return out
}

// checkMembers runs the member-indexed rules for each member name in
// ms, in parallel, and returns each member's findings in ms order.
// Each task appends only to its own slot, so the workers never
// contend. Ambiguity witnesses, which depend on the class and not on
// the member, are filled in afterwards by a class-major pass.
func (r *runner) checkMembers(ms []chg.MemberID) [][]diag.Diagnostic {
	findings := make([][]diag.Diagnostic, len(ms))
	blues := make([][]blueCell, len(ms))
	par.For(len(ms), r.opts.Workers, func(_, i int) {
		findings[i], blues[i] = r.checkMember(ms[i])
	})
	var cells []blueCell
	for i, bs := range blues {
		for _, b := range bs {
			b.slot = i
			cells = append(cells, b)
		}
	}
	r.witnessAmbiguities(findings, cells)
	return findings
}

// checkMember runs the member-indexed rules for one member name over
// every class, in topological order. Its ambiguous-member findings
// come back without witnesses, listed as Blue cells for
// witnessAmbiguities.
func (r *runner) checkMember(m chg.MemberID) ([]diag.Diagnostic, []blueCell) {
	var out []diag.Diagnostic
	var blues []blueCell
	for _, c := range r.g.Topo() {
		res := r.look(c, m)
		if res.Kind() == core.Undefined {
			continue
		}
		if r.enabled[AmbiguousMember] && r.ambiguityFormed(c, m, res) {
			blues = append(blues, blueCell{c: c, m: m, res: res, at: len(out)})
			out = append(out, r.ambiguousMember(c, m, res))
		}
		if r.enabled[DominanceShadowing] {
			out = r.dominanceShadowing(out, c, m)
		}
		if r.enabled[DeadMember] {
			out = r.deadMember(out, c, m)
		}
		if r.enabled[DominanceVsMroDivergence] {
			out = r.dominanceVsMroDivergence(out, c, m, res)
		}
	}
	return out, blues
}

// ambiguityFormed reports where the ambiguous-member rule fires: where
// an ambiguity is *formed*. The cell is Blue and at least two direct
// bases contribute a definition (the merge of lines 25–27 / 43 of
// Figure 8 actually ran). A class that merely inherits a Blue cell
// through a single base repeats its base's ambiguity and is not
// reported again.
func (r *runner) ambiguityFormed(c chg.ClassID, m chg.MemberID, res core.Result) bool {
	if res.Kind() != core.BlueKind {
		return false
	}
	contributing := 0
	for _, e := range r.g.DirectBases(c) {
		if r.look(e.Base, m).Kind() != core.Undefined {
			contributing++
		}
	}
	return contributing >= 2
}

// ambiguousMember is the finding for a formed ambiguity, its witness
// still to come.
func (r *runner) ambiguousMember(c chg.ClassID, m chg.MemberID, res core.Result) diag.Diagnostic {
	msg := fmt.Sprintf("member %s is ambiguous in %s: no definition dominates (%s)",
		r.g.MemberName(m), r.g.Name(c), res.Format(r.g))
	return r.diag(AmbiguousMember, r.classPos(c), c, r.g.MemberName(m), msg, nil)
}

// dominanceShadowing fires where a class redeclares a member that a
// strict base also declares: the derived declaration dominates
// (Definition 5 — it hides every path through itself) and silently
// shadows the base's. A virtual method redeclaring a virtual method is
// exempt: that is an override, the intended use of dominance.
func (r *runner) dominanceShadowing(out []diag.Diagnostic, c chg.ClassID, m chg.MemberID) []diag.Diagnostic {
	mem, ok := r.g.DeclaredMember(c, m)
	if !ok {
		return out
	}
	var hidden []string
	for _, b := range topoOrdered(r.g, r.g.Bases(c)) {
		if !r.g.Declares(b, m) {
			continue
		}
		bm, _ := r.g.DeclaredMember(b, m)
		if mem.Kind == chg.Method && mem.Virtual && bm.Kind == chg.Method && bm.Virtual {
			continue // override, not hiding
		}
		hidden = append(hidden, r.g.Name(b))
	}
	if len(hidden) == 0 {
		return out
	}
	msg := fmt.Sprintf("%s::%s hides the declaration of %s in %s",
		r.g.Name(c), r.g.MemberName(m), r.g.MemberName(m), strings.Join(hidden, ", "))
	w := &diag.Witness{Classes: hidden}
	return append(out, r.diag(DominanceShadowing, r.memberPos(c, m), c, r.g.MemberName(m), msg, w))
}

// deadMember fires when a declaration is never the result of a lookup
// in any strictly derived class: every derived class's lookup resolves
// (or conflicts) elsewhere, so the declaration is unreachable from
// below. Virtual methods are exempt — being overridden everywhere is
// what a virtual interface is for — as are classes with no derived
// classes at all (nothing looks up through them).
func (r *runner) deadMember(out []diag.Diagnostic, c chg.ClassID, m chg.MemberID) []diag.Diagnostic {
	mem, ok := r.g.DeclaredMember(c, m)
	if !ok || len(r.g.DirectDerived(c)) == 0 {
		return out
	}
	if mem.Kind == chg.Method && mem.Virtual {
		return out
	}
	var example string
	for _, d := range topoOrdered(r.g, r.g.Descendants(c)) {
		res := r.look(d, m)
		switch res.Kind() {
		case core.RedKind:
			if res.Def().L == c {
				return out // live: d's lookup finds this declaration
			}
			if example == "" {
				example = fmt.Sprintf("lookup(%s, %s) = %s::%s",
					r.g.Name(d), r.g.MemberName(m), r.g.Name(res.Def().L), r.g.MemberName(m))
			}
		case core.BlueKind:
			// A Blue set records its defs' declaring classes only
			// under the static rule; Ω means unknown, so be
			// conservative and count the declaration as live.
			for _, def := range res.Blue() {
				if def.L == c || def.L == chg.Omega {
					return out
				}
			}
		}
	}
	msg := fmt.Sprintf("%s::%s is hidden in every derived class and is never the result of a lookup below %s",
		r.g.Name(c), r.g.MemberName(m), r.g.Name(c))
	var w *diag.Witness
	if example != "" {
		w = &diag.Witness{Classes: []string{example}}
	}
	return append(out, r.diag(DeadMember, r.memberPos(c, m), c, r.g.MemberName(m), msg, w))
}

// checkStructure runs the FootprintHierarchy rules for each task class
// in cs, in parallel, and returns each class's findings in cs order.
func (r *runner) checkStructure(cs []chg.ClassID) [][]diag.Diagnostic {
	findings := make([][]diag.Diagnostic, len(cs))
	par.For(len(cs), r.opts.Workers, func(_, i int) {
		findings[i] = r.checkClassStructural(nil, cs[i])
	})
	return findings
}

// checkClassStructural runs the FootprintHierarchy rules for task
// class c: redundant edges of c, duplication of c as a repeated base,
// and c's C3 merge. Their findings depend only on the hierarchy's
// shape, which for any given class is fixed at definition — a Session
// re-runs them only when classes are added.
func (r *runner) checkClassStructural(out []diag.Diagnostic, c chg.ClassID) []diag.Diagnostic {
	if r.enabled[RedundantInheritanceEdge] {
		out = r.redundantEdges(out, c)
	}
	if r.enabled[DiamondWithoutVirtual] {
		out = r.diamondJoins(out, c)
	}
	if r.enabled[C3FailsToLinearize] {
		out = r.c3FailsToLinearize(out, c)
	}
	return out
}

// checkRows runs the FootprintClass rules — the ones that read lookup
// cells of one class's row, so a Session re-runs them for every class
// an edit's cone touches — for each class in cs, in parallel, and
// returns each class's findings in cs order. The g++ cross-check
// skips classes whose subobject graph exceeds the limit: the baseline
// is exponential, which is rather the paper's point. Subobject counts
// for the guard come from one pass over the whole hierarchy.
func (r *runner) checkRows(cs []chg.ClassID) [][]diag.Diagnostic {
	findings := make([][]diag.Diagnostic, len(cs))
	if !r.enabled[GxxDivergence] || len(cs) == 0 {
		return findings
	}
	counts := subobject.Counts(r.g, r.subLimit)
	par.For(len(cs), r.opts.Workers, func(_, i int) {
		if counts[cs[i]] <= r.subLimit {
			findings[i] = r.gxxDivergence(nil, cs[i])
		}
	})
	return findings
}

// redundantEdges flags each direct base of c that is already a base of
// another direct base: the edge adds no new member visibility (for a
// virtual base it adds nothing at all; for a non-virtual one it adds
// only another subobject copy).
func (r *runner) redundantEdges(out []diag.Diagnostic, c chg.ClassID) []diag.Diagnostic {
	for _, e := range r.g.DirectBases(c) {
		var via []string
		for _, d := range r.g.DirectBases(c) {
			if d.Base != e.Base && r.g.IsBase(e.Base, d.Base) {
				via = append(via, r.g.Name(d.Base))
			}
		}
		if len(via) == 0 {
			continue
		}
		msg := fmt.Sprintf("direct base %s of %s is redundant: %s is already a base of %s",
			r.g.Name(e.Base), r.g.Name(c), r.g.Name(e.Base), strings.Join(via, ", "))
		w := &diag.Witness{Classes: via}
		out = append(out, r.diag(RedundantInheritanceEdge, r.classPos(c), c, "", msg, w))
	}
	return out
}

// diamondCap saturates the duplication counts; hierarchies can make
// them exponential (Section 7.1) and past "more than one" the exact
// number stops mattering.
const diamondCap = 1 << 30

// diamondJoins treats c as the repeated base: it counts, for every
// class x, how many distinct c-subobjects a complete x object
// contains, and reports the join points — the classes where the count
// first reaches 2 while every direct base contributes at most one.
// The count is the standard subobject count of Section 3: non-virtual
// paths c → x, plus non-virtual paths into each virtual base of x.
func (r *runner) diamondJoins(out []diag.Diagnostic, c chg.ClassID) []diag.Diagnostic {
	if len(r.g.DirectDerived(c)) == 0 {
		return out
	}
	// nv[x]: number of purely non-virtual CHG paths c → x.
	nv := make([]int64, r.g.NumClasses())
	nv[c] = 1
	for _, x := range r.g.Topo() {
		if x == c {
			continue
		}
		var n int64
		for _, e := range r.g.DirectBases(x) {
			if e.Kind == chg.NonVirtual {
				n += nv[e.Base]
				if n > diamondCap {
					n = diamondCap
				}
			}
		}
		nv[x] = n
	}
	dup := func(x chg.ClassID) int64 {
		n := nv[x]
		for _, v := range r.g.VirtualBases(x) {
			n += nv[v]
			if n > diamondCap {
				n = diamondCap
			}
		}
		return n
	}
	for _, x := range r.g.Topo() {
		if x == c || dup(x) < 2 {
			continue
		}
		join := true
		var via []string
		for _, e := range r.g.DirectBases(x) {
			if dup(e.Base) >= 2 {
				join = false
				break
			}
			if e.Base == c || r.g.IsBase(c, e.Base) {
				via = append(via, r.g.Name(e.Base))
			}
		}
		if !join {
			continue
		}
		msg := fmt.Sprintf("%s contains %d distinct %s subobjects (inherited via %s); virtual inheritance of %s would share one",
			r.g.Name(x), dup(x), r.g.Name(c), strings.Join(via, ", "), r.g.Name(c))
		w := &diag.Witness{Classes: via}
		out = append(out, r.diag(DiamondWithoutVirtual, r.classPos(x), x, "", msg, w))
	}
	return out
}

// staticRuleApplies reports whether Definition 17 could be shaping
// the paper's answer for this cell: the declaring class of the result
// (or of any surviving blue def) declares the member
// static-for-lookup. StaticSet alone is not enough — when every
// static copy shares one (L, V) abstraction the defs merge and the
// marker stays empty, but the cell was still resolved by the rule the
// baseline lacks.
func (r *runner) staticRuleApplies(paper core.Result, m chg.MemberID) bool {
	declStatic := func(c chg.ClassID) bool {
		if c == chg.Omega {
			return false
		}
		mem, ok := r.g.DeclaredMember(c, m)
		return ok && mem.StaticForLookup()
	}
	switch paper.Kind() {
	case core.RedKind:
		return paper.StaticSet() != nil || declStatic(paper.Def().L)
	case core.BlueKind:
		for _, d := range paper.Blue() {
			if declStatic(d.L) {
				return true
			}
		}
	}
	return false
}

// gxxDivergence cross-checks every cell of c's table row against the
// g++ 2.7.2.1 baseline (internal/gxx), reproducing Figure 9 as a
// diagnostic. Cells involving static-for-lookup declarations are
// skipped — the baseline does not model Definition 17, so a
// difference there is a rule difference, not the BFS bug. The scan
// order is the same for every member, so it is built once per class.
func (r *runner) gxxDivergence(out []diag.Diagnostic, c chg.ClassID) []diag.Diagnostic {
	sg, err := subobject.Build(r.g, c, r.subLimit)
	if err != nil {
		return out
	}
	r.scanOrders.Add(1)
	scan := gxx.NewScan(sg)
	for _, m := range r.members(c) {
		paper := r.look(c, m)
		if r.staticRuleApplies(paper, m) {
			continue
		}
		gres, tr := scan.LookupTrace(m)
		var msg string
		w := &diag.Witness{Visited: gres.Visited}
		switch {
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.ReportedAmbiguous:
			// The Figure 9 shape: a false ambiguity report.
			msg = fmt.Sprintf("g++ 2.7.2.1 falsely reports lookup(%s, %s) as ambiguous; the dominant definition is %s::%s",
				r.g.Name(c), r.g.MemberName(m), r.g.Name(paper.Def().L), r.g.MemberName(m))
			w.Paper = fmt.Sprintf("resolves to %s::%s (%s)",
				r.g.Name(paper.Def().L), r.g.MemberName(m), paper.Format(r.g))
			a, b := tr.Conflict[0], tr.Conflict[1]
			w.Gxx = fmt.Sprintf("breadth-first scan met the incomparable definitions %s::%s and %s::%s and quit",
				r.g.Name(sg.Class(a)), r.g.MemberName(m), r.g.Name(sg.Class(b)), r.g.MemberName(m))
			w.Classes = []string{r.g.Name(sg.Class(a)), r.g.Name(sg.Class(b))}
			w.Paths = []string{
				renderPath(r.g, sg.Subobject(a).Path.Nodes()),
				renderPath(r.g, sg.Subobject(b).Path.Nodes()),
			}
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.Resolved && gres.Class != paper.Def().L:
			msg = fmt.Sprintf("g++ 2.7.2.1 resolves lookup(%s, %s) to %s::%s, but the dominant definition is %s::%s",
				r.g.Name(c), r.g.MemberName(m), r.g.Name(gres.Class), r.g.MemberName(m),
				r.g.Name(paper.Def().L), r.g.MemberName(m))
			w.Paper = fmt.Sprintf("resolves to %s::%s", r.g.Name(paper.Def().L), r.g.MemberName(m))
			w.Gxx = fmt.Sprintf("resolves to %s::%s", r.g.Name(gres.Class), r.g.MemberName(m))
			w.Paths = []string{renderPath(r.g, sg.Subobject(gres.Subobject).Path.Nodes())}
		case paper.Kind() == core.BlueKind && gres.Outcome != gxx.ReportedAmbiguous:
			msg = fmt.Sprintf("g++ 2.7.2.1 does not report lookup(%s, %s) as ambiguous, but it is (%s)",
				r.g.Name(c), r.g.MemberName(m), paper.Format(r.g))
			w.Paper = paper.Format(r.g)
			w.Gxx = gres.Outcome.String()
		case paper.Kind() == core.RedKind && gres.Outcome == gxx.NotFound:
			msg = fmt.Sprintf("g++ 2.7.2.1 does not find lookup(%s, %s), but it resolves to %s::%s",
				r.g.Name(c), r.g.MemberName(m), r.g.Name(paper.Def().L), r.g.MemberName(m))
			w.Paper = fmt.Sprintf("resolves to %s::%s", r.g.Name(paper.Def().L), r.g.MemberName(m))
			w.Gxx = gres.Outcome.String()
		default:
			continue
		}
		out = append(out, r.diag(GxxDivergence, r.classPos(c), c, r.g.MemberName(m), msg, w))
	}
	return out
}
