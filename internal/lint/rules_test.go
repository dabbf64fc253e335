package lint

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/diag"
	"cpplookup/internal/hiergen"
)

// refDiamondJoins is diamond-without-virtual counted over the whole
// topological order, with a fresh path-count array per call and a
// base-relation probe per via edge: the reference the cone-restricted
// rule must reproduce finding for finding.
func refDiamondJoins(r *runner, c chg.ClassID) []diag.Diagnostic {
	var out []diag.Diagnostic
	if len(r.g.DirectDerived(c)) == 0 {
		return out
	}
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
		out = append(out, r.diag(DiamondWithoutVirtual, r.classPos(x), x, "", msg, &diag.Witness{Classes: via}))
	}
	return out
}

// TestDiamondJoinsMatchWholeTopoReference pins the cone-restricted
// diamond rule, which reuses one walker's path counts across calls,
// against the whole-Topo reference on seeded random DAGs with virtual
// edges and on small Giants with diamond towers: every class's
// findings, messages and witnesses must be equal.
func TestDiamondJoinsMatchWholeTopoReference(t *testing.T) {
	graphs := map[string]*chg.Graph{}
	for seed := range int64(12) {
		graphs[fmt.Sprintf("random-%d", seed)] = hiergen.Random(hiergen.RandomConfig{
			Classes: 40, MaxBases: 3, VirtualProb: 0.3,
			MemberNames: 2, MemberProb: 0.1, Seed: seed,
		})
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := hiergen.GiantDefaults(300)
		cfg.MemberNames, cfg.Seed = 8, seed
		graphs[fmt.Sprintf("giant-%d", seed)] = hiergen.Giant(cfg)
	}
	total := 0
	var w walker // shared across graphs and classes, as a rule worker's is
	for name, g := range graphs {
		r := newRunner(g, nil, nil, Options{}, map[string]bool{DiamondWithoutVirtual: true}, nil)
		for c := range g.NumClasses() {
			got := r.diamondJoins(&w, nil, chg.ClassID(c))
			if want := refDiamondJoins(r, chg.ClassID(c)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: diamond joins under %s = %+v, reference %+v", name, g.Name(chg.ClassID(c)), got, want)
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no diamond joins on any graph: the comparison is vacuous")
	}
}

// TestHierarchyRulesAllocationBounded gates the rules that read the
// base relation — dominance-shadowing, dead-member,
// redundant-inheritance-edge and diamond-without-virtual — by the bytes
// one Run allocates over an 8,000-class Giant with 64 member names,
// its table built beforehand. It is counted by the runtime rather than
// timed: walks over the direct lists with per-worker scratch keep the
// run linear in the hierarchy, where two |N|²-bit closure matrices and
// a path-count array per class came to 570.7 MB. The finding count
// pins that the rules still report what they did with the matrices.
func TestHierarchyRulesAllocationBounded(t *testing.T) {
	cfg := hiergen.GiantDefaults(8000)
	cfg.MemberNames = 64
	snap := snapshot(hiergen.Giant(cfg))
	snap.Table()
	opts := Options{Rules: []string{DominanceShadowing, DeadMember, RedundantInheritanceEdge, DiamondWithoutVirtual}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds, err := Run(snap, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("Run of the four hierarchy rules allocated %d bytes, want under %d", got, limit)
	}
	if len(ds) != 13119 {
		t.Errorf("Run reported %d findings, want 13119", len(ds))
	}
}
