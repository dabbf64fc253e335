package harness

// E15 measures the edit→serve hot path: a single-member edit on a
// large warm hierarchy, followed by a republish and a full requery of
// the served table. Two serving strategies compete:
//
//   - warm-carry:   engine.WorkspaceBinding.Sync — the workspace's
//     edit log yields the exact invalidation cone and UpdateCarried
//     seeds the new snapshot with every surviving packed cell, so
//     only cone entries refill;
//   - cold-rebuild: freeze + engine.Update — every entry of the new
//     snapshot refills lazily from scratch.
//
// Alongside wall-clock per edit→requery round it reports the fraction
// of the warm cache that survives each carry (CarryStats), the axis
// the cone-exactness claim is measured on.

import (
	"fmt"
	"io"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// EditRelookupConfig is one hierarchy shape of the edit-relookup
// benchmark family, shared by experiment E15, BenchmarkEditRelookup
// and cmd/benchjson. The edit is always a single-member toggle on a
// leaf class — the sparse serving edit the carry-over targets.
type EditRelookupConfig struct {
	Name  string
	Shape string // "dense" or "sparse"
	Make  func() *chg.Graph
}

// EditRelookupConfigs returns the benchmark family. The sparse
// shapes are the acceptance regime: a single-member edit invalidates
// a sliver of a large warm cache, so carrying it forward should beat
// refilling it by a wide margin; the dense shape bounds the win when
// the table is small.
func EditRelookupConfigs() []EditRelookupConfig {
	return []EditRelookupConfig{
		{"realistic-6x4", "dense", func() *chg.Graph { return hiergen.Realistic(6, 4) }},
		{"sparse-200c-1000m", "sparse", func() *chg.Graph { return hiergen.SparseMembers(200, 1000, 3, 7) }},
		{"sparse-400c-2000m", "sparse", func() *chg.Graph { return hiergen.SparseMembers(400, 2000, 3, 11) }},
	}
}

// EditRelookupSession is one strategy instantiated on one hierarchy:
// Step performs a full edit→republish→requery round, and Carry
// reports the carry statistics of the last republish (zero for
// strategies that do not carry).
type EditRelookupSession struct {
	Step  func()
	Carry func() engine.CarryStats
}

// EditRelookupStrategy is one serving strategy under test.
type EditRelookupStrategy struct {
	Name  string
	Setup func(g *chg.Graph) (*EditRelookupSession, error)
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

// EditRelookupStrategies returns the strategies E15 and the
// benchmarks compare.
func EditRelookupStrategies() []EditRelookupStrategy {
	return []EditRelookupStrategy{
		{"warm-carry", setupWarmCarry},
		{"cold-rebuild", setupColdRebuild},
	}
}

func setupWarmCarry(g *chg.Graph) (*EditRelookupSession, error) {
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
	return &EditRelookupSession{
		Step: func() {
			present = toggleMember(w, c, name, present)
			s, err := b.Sync()
			if err != nil {
				panic(err)
			}
			snap = s
			requeryAll(snap)
		},
		Carry: func() engine.CarryStats { return snap.Carry() },
	}, nil
}

func setupColdRebuild(g *chg.Graph) (*EditRelookupSession, error) {
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
	return &EditRelookupSession{
		Step: func() {
			present = toggleMember(w, c, name, present)
			g2, err := w.Snapshot()
			if err != nil {
				panic(err)
			}
			s, err := e.Update("bench", g2)
			if err != nil {
				panic(err)
			}
			snap = s
			requeryAll(snap)
		},
		Carry: func() engine.CarryStats { return engine.CarryStats{} },
	}, nil
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

// SurvivalFraction is the share of the predecessor's warm cache a
// carried republish kept: Carried / (Carried + Invalidated).
func SurvivalFraction(st engine.CarryStats) float64 {
	if st.Carried+st.Invalidated == 0 {
		return 0
	}
	return float64(st.Carried) / float64(st.Carried+st.Invalidated)
}

// RunE15 prints the edit→requery comparison.
func RunE15(w io.Writer) error {
	fmt.Fprintln(w, "Edit→serve hot path: one member edit on a fully warm hierarchy, then")
	fmt.Fprintln(w, "republish and requery the whole served table. warm-carry copies every")
	fmt.Fprintln(w, "surviving packed cell into the new snapshot and refills only the")
	fmt.Fprintln(w, "invalidation cone; cold-rebuild refills everything.")
	fmt.Fprintln(w)

	t := newTable("hierarchy", "|N|", "|M|", "warm-carry", "cold-rebuild", "vs cold", "survival")
	for _, cfg := range EditRelookupConfigs() {
		g := cfg.Make()
		times := map[string]time.Duration{}
		var survival float64
		for _, s := range EditRelookupStrategies() {
			sess, err := s.Setup(g)
			if err != nil {
				return err
			}
			sess.Step() // settle into the steady warm state
			times[s.Name] = timePerOp(20*time.Millisecond, sess.Step)
			if s.Name == "warm-carry" {
				survival = SurvivalFraction(sess.Carry())
			}
		}
		t.add(cfg.Name, g.NumClasses(), g.NumMemberNames(),
			times["warm-carry"], times["cold-rebuild"],
			fmt.Sprintf("%.2fx", float64(times["cold-rebuild"])/float64(times["warm-carry"])),
			fmt.Sprintf("%.1f%%", 100*survival))
	}
	t.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "survival = fraction of the predecessor's cached entries carried into")
	fmt.Fprintln(w, "the new snapshot (Carried / (Carried + Invalidated)); the remainder is")
	fmt.Fprintln(w, "the exact invalidation cone of the edit.")
	return nil
}
