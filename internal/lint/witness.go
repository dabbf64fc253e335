package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/diag"
	"cpplookup/internal/par"
	"cpplookup/internal/paths"
	"cpplookup/internal/subobject"
)

// renderPath renders a CHG path as "Ldc -> ... -> Mdc" class names —
// the witness form tests can split and rebuild with paths.ByNames.
func renderPath(g *chg.Graph, nodes []chg.ClassID) string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = g.Name(n)
	}
	return strings.Join(names, " -> ")
}

// blueCell is an ambiguous-member finding awaiting its witness: the
// member pass records where the finding sits, and the class-major
// witness pass fills it in.
type blueCell struct {
	c        chg.ClassID
	m        chg.MemberID
	res      core.Result
	slot, at int // the finding is findings[slot][at]
}

// witnessAmbiguities fills in the witness of every ambiguous-member
// finding the member pass left pending. A witness depends on the
// class's CHG paths, not on the member: Defns(C, m) is the subset of
// C's subobjects whose class declares m (Definitions 4–7). So the
// cells are grouped by class, every class's paths are counted in one
// topological pass, and each class's paths are enumerated and grouped
// into subobjects once for all of its cells. Classes are witnessed in
// parallel, one at a time per worker, so a run holds at most one
// class's enumeration per worker.
func (r *runner) witnessAmbiguities(findings [][]diag.Diagnostic, cells []blueCell) {
	if len(cells) == 0 {
		return
	}
	slices.SortFunc(cells, func(a, b blueCell) int { return cmp.Compare(a.c, b.c) })
	var byClass [][]blueCell
	for len(cells) > 0 {
		n := 1
		for n < len(cells) && cells[n].c == cells[0].c {
			n++
		}
		byClass = append(byClass, cells[:n])
		cells = cells[n:]
	}
	counts := subobject.PathCounts(r.g, r.pathLimit)
	par.For(len(byClass), r.opts.Workers, func(_, i int) {
		c := byClass[i][0].c
		var subs []paths.EquivClass
		if counts[c] <= r.pathLimit {
			r.enumerations.Add(1)
			subs = paths.Subobjects(r.g, c, r.pathLimit)
		}
		for _, b := range byClass[i] {
			findings[b.slot][b.at].Witness = r.ambiguityWitness(subs, b.m, b.res)
		}
	})
}

// ambiguityWitness reconstructs two minimal conflicting definition
// paths for a Blue cell from the path-enumeration oracle
// (internal/paths), given the subobjects of the cell's class: two
// maximal elements of Defns(C, m) — neither dominates the other
// (Definition 16), which is exactly why the lookup has no
// most-dominant element. Each path is the shortest member of its
// ≈-class. When the class has too many paths to enumerate (no
// subobjects given), the witness falls back to the Blue set's
// abstractions.
func (r *runner) ambiguityWitness(subs []paths.EquivClass, m chg.MemberID, res core.Result) *diag.Witness {
	g := r.g
	maximal := paths.Maximal(paths.Declaring(subs, m))
	if len(maximal) < 2 {
		return r.abstractWitness(res)
	}
	// Prefer a pair with distinct declaring classes — "A::m conflicts
	// with B::m" reads better than two copies of the same class — and
	// fall back to the first two ≈-classes (distinct subobjects of one
	// class, the static-member shape).
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
	p, q := shortestMember(maximal[i]), shortestMember(maximal[j])
	pair := []paths.Path{p, q}
	paths.SortPaths(pair)
	return &diag.Witness{
		Paths: []string{
			renderPath(g, pair[0].Nodes()),
			renderPath(g, pair[1].Nodes()),
		},
		Classes: []string{g.Name(pair[0].Ldc()), g.Name(pair[1].Ldc())},
	}
}

// shortestMember returns the minimal representative of a subobject's
// path ≈-class.
func shortestMember(ec paths.EquivClass) paths.Path {
	ms := append([]paths.Path(nil), ec.Members...)
	paths.SortPaths(ms)
	return ms[0]
}

// abstractWitness renders the Blue set in the paper's (ldc,
// leastVirtual) notation.
func (r *runner) abstractWitness(res core.Result) *diag.Witness {
	if len(res.Blue()) == 0 {
		return nil
	}
	w := &diag.Witness{}
	for _, d := range res.Blue() {
		w.Abstractions = append(w.Abstractions, fmt.Sprintf("(%s, %s)", r.className(d.L), r.className(d.V)))
	}
	return w
}

func (r *runner) className(c chg.ClassID) string {
	if c == chg.Omega {
		return "Ω"
	}
	return r.g.Name(c)
}
