package harness

// E15 measures the edit→serve hot path: a single-member edit on a
// large warm hierarchy, followed by a republish and a full requery of
// the served table. Two serving strategies compete:
//
//   - warm-carry:   engine.WorkspaceBinding.Sync — the workspace's
//     edit log yields the exact invalidation cone and UpdateCarried
//     seeds the new snapshot with every surviving packed cell —
//     sharing the unedited members' runs, copying the edited one's —
//     so only cone entries refill;
//   - cold-rebuild: freeze + engine.Update — every entry of the new
//     snapshot refills lazily from scratch.
//
// Alongside wall-clock per edit→requery round it reports the fraction
// of the warm cache that survives each carry (CarryStats), the axis
// the cone-exactness claim is measured on.

import (
	"fmt"
	"io"

	"cpplookup/internal/chg"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
)

// editRelookupFamily is E15 and BENCH_edit_relookup.json. The edit is
// always a single-member toggle on a leaf class — the sparse serving
// edit the carry-over targets. The sparse shapes are the acceptance
// regime: a single-member edit invalidates a sliver of a large warm
// cache, so carrying it forward should beat refilling it by a wide
// margin; the dense shape bounds the win when the table is small.
func editRelookupFamily() Family {
	grid := servingConfigs([]Strategy{{"warm-carry", setupWarmCarry}, {"cold-rebuild", setupColdRebuild}})
	return Family{
		Name:       "edit_relookup",
		Benchmark:  "BenchmarkEditRelookup",
		Unit:       "ns_per_op is wall time per edit→republish→full-requery round on a warm hierarchy; cache_survival is the carried fraction of the predecessor's cache",
		Experiment: "E15",
		Configs:    grid,
		Smoke:      grid,
		Extras:     func(r *Row, _ *chg.Graph) { r.CarrySpeedupCold = r.speedup("cold-rebuild", "warm-carry") },
		Print:      printE15,
	}
}

// editTarget picks the toggled declaration: a member name that exists
// in the hierarchy, added to and removed from a leaf class — the
// smallest honest cone (exactly one served entry changes per edit).
func editTarget(g *chg.Graph) (chg.ClassID, string) {
	leaves := g.Leaves()
	c := leaves[len(leaves)-1]
	return c, g.MemberName(0)
}

// declaresName reports whether c currently declares name in g — the
// initial state of the toggle.
func declaresName(g *chg.Graph, c chg.ClassID, name string) bool {
	if m, ok := g.MemberID(name); ok {
		return g.Declares(c, m)
	}
	return false
}

// requeryAll walks the full served table once — the "serve" half of
// every strategy's step.
func requeryAll(snap *engine.Snapshot) {
	g := snap.Graph()
	for c := 0; c < g.NumClasses(); c++ {
		for m := 0; m < g.NumMemberNames(); m++ {
			snap.Lookup(chg.ClassID(c), chg.MemberID(m))
		}
	}
}

func setupWarmCarry(g *chg.Graph, _ string) (*Session, error) {
	w, err := incremental.FromGraph(g)
	if err != nil {
		return nil, err
	}
	e := engine.New()
	b, snap, err := e.BindWorkspace("bench", w)
	if err != nil {
		return nil, err
	}
	requeryAll(snap) // fully warm starting point
	c, name := editTarget(g)
	present := declaresName(g, c, name)
	return settle(&Session{
		Step: func() int {
			present = toggleMember(w, c, name, present)
			s, err := b.Sync()
			if err != nil {
				panic(err)
			}
			snap = s
			requeryAll(snap)
			return 1
		},
		Done: func(r *Row, _ Timing) {
			st := snap.Carry()
			r.CacheSurvival = survivalFraction(st)
			r.CarriedEntries, r.InvalidatedConeSz = st.Carried, st.Invalidated
		},
	})
}

func setupColdRebuild(g *chg.Graph, _ string) (*Session, error) {
	w, err := incremental.FromGraph(g)
	if err != nil {
		return nil, err
	}
	e := engine.New()
	snap, err := e.Register("bench", g)
	if err != nil {
		return nil, err
	}
	requeryAll(snap)
	c, name := editTarget(g)
	present := declaresName(g, c, name)
	return settle(&Session{Step: func() int {
		present = toggleMember(w, c, name, present)
		g2, err := w.Snapshot()
		if err != nil {
			panic(err)
		}
		snap, err := e.Update("bench", g2)
		if err != nil {
			panic(err)
		}
		requeryAll(snap)
		return 1
	}})
}

// toggleMember flips the presence of a Method declaration and returns
// the new presence.
func toggleMember(w *incremental.Workspace, c chg.ClassID, name string, present bool) bool {
	if present {
		if err := w.RemoveMember(c, name); err != nil {
			panic(err)
		}
		return false
	}
	if err := w.AddMember(c, chg.Member{Name: name, Kind: chg.Method}); err != nil {
		panic(err)
	}
	return true
}

// survivalFraction is the share of the predecessor's warm cache a
// carried republish kept: Carried / (Carried + Invalidated).
func survivalFraction(st engine.CarryStats) float64 {
	if st.Carried+st.Invalidated == 0 {
		return 0
	}
	return float64(st.Carried) / float64(st.Carried+st.Invalidated)
}

func printE15(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Edit→serve hot path: one member edit on a fully warm hierarchy, then")
	fmt.Fprintln(w, "republish and requery the whole served table. warm-carry shares every")
	fmt.Fprintln(w, "unedited member's cell run with the new snapshot, copies the edited")
	fmt.Fprintln(w, "member's run and refills only the invalidation cone; cold-rebuild")
	fmt.Fprintln(w, "refills everything.")
	fmt.Fprintln(w)

	t := newTable("hierarchy", "|N|", "|M|", "warm-carry", "cold-rebuild", "vs cold", "survival")
	for _, r := range rows {
		t.add(r.Name, r.Classes, r.MemberNames, r.per("warm-carry"), r.per("cold-rebuild"),
			fmt.Sprintf("%.2fx", r.CarrySpeedupCold), fmt.Sprintf("%.1f%%", 100*r.CacheSurvival))
	}
	t.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "survival = fraction of the predecessor's cached entries carried into")
	fmt.Fprintln(w, "the new snapshot (Carried / (Carried + Invalidated)); the remainder is")
	fmt.Fprintln(w, "the exact invalidation cone of the edit.")
}
