package harness

import (
	"fmt"
	"io"

	"cpplookup/internal/chg"
	"cpplookup/internal/engine"
	"cpplookup/internal/incremental"
	"cpplookup/internal/lint"
)

// lintFamily is E17 and BENCH_lint.json: on the E15 shapes, so the
// lint numbers sit on the same hierarchies as the serving numbers they
// build on, re-running every rule on every snapshot versus the
// cone-scoped session of internal/lint.
func lintFamily() Family {
	grid := servingConfigs([]Strategy{{"full-relint", setupFullRelint}, {"cone-relint", setupConeRelint}})
	return Family{
		Name:       "lint",
		Benchmark:  "BenchmarkLintRelint",
		Unit:       "ns_per_op is wall time per edit→republish→re-analyze round on an analyzed hierarchy; tasks_per_edit count the cone strategy's bucket re-evaluations by footprint",
		Experiment: "E17",
		Configs:    grid,
		Smoke:      grid,
		Extras:     func(r *Row, _ *chg.Graph) { r.ConeSpeedupVsFull = r.speedup("full-relint", "cone-relint") },
		Print:      printE17,
	}
}

// setupFullRelint is the baseline: every edit republishes through the
// binding (warm serving carry included — only the re-analysis
// strategy differs) and re-runs every lint rule over the whole
// hierarchy.
func setupFullRelint(g *chg.Graph, _ string) (*Session, error) {
	w, err := incremental.FromGraph(g)
	if err != nil {
		return nil, err
	}
	b, snap, err := engine.New().BindWorkspace("bench", w)
	if err != nil {
		return nil, err
	}
	if _, err := lint.Run(snap, lint.Options{}); err != nil {
		return nil, err
	}
	c, name := editTarget(g)
	present := declaresName(g, c, name)
	return settle(&Session{Step: func() int {
		present = toggleMember(w, c, name, present)
		s, err := b.Sync()
		if err != nil {
			panic(err)
		}
		if _, err := lint.Run(s, lint.Options{}); err != nil {
			panic(err)
		}
		return 1
	}})
}

// setupConeRelint is the incremental engine: a lint.Session over the
// same binding re-evaluates only the buckets the edit's invalidation
// cone touches. It records those bucket re-evaluations per timed edit.
func setupConeRelint(g *chg.Graph, _ string) (*Session, error) {
	w, err := incremental.FromGraph(g)
	if err != nil {
		return nil, err
	}
	b, _, err := engine.New().BindWorkspace("bench", w)
	if err != nil {
		return nil, err
	}
	s, err := lint.NewSession(b, lint.Options{})
	if err != nil {
		return nil, err
	}
	c, name := editTarget(g)
	present := declaresName(g, c, name)
	var before lint.SessionStats
	sess, err := settle(&Session{
		Step: func() int {
			present = toggleMember(w, c, name, present)
			if _, err := s.Sync(); err != nil {
				panic(err)
			}
			return 1
		},
		Done: func(r *Row, t Timing) {
			after, steps := s.Stats(), float64(t.Steps)
			r.MemberTasksPerEdit = float64(after.MemberTasks-before.MemberTasks) / steps
			r.RowTasksPerEdit = float64(after.RowTasks-before.RowTasks) / steps
			r.StructTasksPerEdit = float64(after.StructuralTasks-before.StructuralTasks) / steps
		},
	})
	before = s.Stats()
	return sess, err
}

func printE17(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Incremental lint: one member edit on an analyzed hierarchy, then")
	fmt.Fprintln(w, "republish and re-lint. full-relint re-runs every rule over the whole")
	fmt.Fprintln(w, "hierarchy each round; cone-relint keeps per-rule diagnostic state in a")
	fmt.Fprintln(w, "lint.Session and re-evaluates only the buckets the edit's invalidation")
	fmt.Fprintln(w, "cone touches (per the rules' declared footprints). Both strategies")
	fmt.Fprintln(w, "serve lookups through the same warm-carried binding; only the")
	fmt.Fprintln(w, "re-analysis differs.")
	fmt.Fprintln(w)

	t := newTable("hierarchy", "|N|", "|M|", "full-relint", "cone-relint", "speedup", "tasks/edit")
	for _, r := range rows {
		t.add(r.Name, r.Classes, r.MemberNames, r.per("full-relint"), r.per("cone-relint"),
			fmt.Sprintf("%.2fx", r.ConeSpeedupVsFull),
			fmt.Sprintf("%.1fm %.1fr %.1fs", r.MemberTasksPerEdit, r.RowTasksPerEdit, r.StructTasksPerEdit))
	}
	t.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "tasks/edit = cone-relint bucket re-evaluations per edit by footprint")
	fmt.Fprintln(w, "(member columns, gxx class rows, structural tasks); a single-member")
	fmt.Fprintln(w, "toggle dirties one member column and one class row, independent of")
	fmt.Fprintln(w, "hierarchy size — that sliver is the whole re-analysis.")
}
