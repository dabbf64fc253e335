package harness

// E14 measures what the support-pruned, word-batched table build
// (PR 4) buys over the two older whole-table strategies:
//
//   - naive:   the member-major full pass — one topological walk over
//     the *entire* hierarchy per member name, the literal
//     O(|M|·|N|·…) reading of Figure 8 (core.BuildTableUnpruned);
//   - eager:   the entry-major pass of core.BuildTable — already
//     Σ|supp(m)|-proportional, but paying a per-entry closure, a
//     binary-search base lookup, and fresh resolve buffers;
//   - batched: core.BuildSemTable — 64-member blocks over the
//     membership bit matrix, one topo walk per block with zero-mask
//     skipping, per-worker reusable scratch, and O(1) column reads (at
//     these sizes the default budget holds every block in one chunk).
//
// Alongside wall-clock it reports the analytic work profile
// (core.MeasureTableBuildWork): how many (class, block) slots the
// batched walk does real work in, versus the |M|·|N| class visits of
// the naive pass — the "visited entries" axis of the pruning claim.

import (
	"fmt"
	"io"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// tableBuildFamily is E14 and BENCH_table_build.json: dense
// Figure-style hierarchies (every member visible almost everywhere —
// pruning can win little) and sparse many-member hierarchies (each
// member's support cone is a sliver of the hierarchy — the pruned
// regime), each built whole by every strategy. "batched-n" uses all
// available workers (GOMAXPROCS).
func tableBuildFamily() Family {
	var ss []Strategy
	for _, b := range []struct {
		name  string
		build func(k *core.Kernel) *core.Table
	}{
		{"naive", (*core.Kernel).BuildTableUnpruned},
		{"eager", (*core.Kernel).BuildTable},
		{"batched-1", func(k *core.Kernel) *core.Table { return core.BuildSemTable(k, 1) }},
		{"batched-n", func(k *core.Kernel) *core.Table { return core.BuildSemTable(k, 0) }},
	} {
		ss = append(ss, Strategy{b.name, func(g *chg.Graph, _ string) (*Session, error) {
			return settle(&Session{Step: func() int { b.build(core.NewKernel(g)); return 1 }})
		}})
	}
	grid := servingConfigs(ss)
	return Family{
		Name:       "table_build",
		Benchmark:  "BenchmarkTableBuild",
		Unit:       "ns_per_op is wall time per whole-table build; visits are analytic topological-walk slot counts",
		Experiment: "E14",
		Configs:    grid,
		Smoke:      grid,
		Extras: func(r *Row, g *chg.Graph) {
			work := core.MeasureTableBuildWork(g)
			r.Entries, r.Blocks, r.WalkSlots = work.Entries, work.Blocks, work.BatchedWalkSlots
			r.BatchedClassVisits, r.UnprunedClassVisits = work.BatchedClassVisits, work.UnprunedClassVisits
			r.SpeedupVsEager = r.speedup("eager", "batched-1")
			r.SpeedupVsNaive = r.speedup("naive", "batched-1")
		},
		Print: printE14,
	}
}

func printE14(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Whole-table build: support-pruned batched pass vs prior strategies.")
	fmt.Fprintln(w)
	t1 := newTable("hierarchy", "|N|", "|M|", "entries", "naive", "eager", "batched-1", "batched-n", "vs eager", "vs naive")
	for _, r := range rows {
		t1.add(r.Name, r.Classes, r.MemberNames, r.Entries,
			r.per("naive"), r.per("eager"), r.per("batched-1"), r.per("batched-n"),
			fmt.Sprintf("%.2fx", r.SpeedupVsEager), fmt.Sprintf("%.2fx", r.SpeedupVsNaive))
	}
	t1.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Work profile (analytic, from the membership bit matrix): where each")
	fmt.Fprintln(w, "pass spends topological-walk slots. 'batched visits' counts the")
	fmt.Fprintln(w, "(class, 64-member block) pairs with a nonzero mask — the only slots")
	fmt.Fprintln(w, "where the batched walk does more than one word probe; the naive")
	fmt.Fprintln(w, "member-major pass visits |M|·|N| class slots regardless of support.")
	fmt.Fprintln(w)
	t2 := newTable("hierarchy", "entries", "blocks", "batched visits", "walk slots", "naive visits", "pruned away")
	for _, r := range rows {
		t2.add(r.Name, r.Entries, r.Blocks, r.BatchedClassVisits, r.WalkSlots, r.UnprunedClassVisits,
			fmt.Sprintf("%.1f%%", 100*(1-float64(r.BatchedClassVisits)/float64(r.UnprunedClassVisits))))
	}
	t2.write(w)
}
