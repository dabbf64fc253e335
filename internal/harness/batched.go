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
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// TableBuildConfig is one hierarchy shape of the table-build
// benchmark family, shared by experiment E14, BenchmarkTableBuild,
// and cmd/benchjson so every consumer measures the same graphs.
type TableBuildConfig struct {
	Name  string
	Shape string // "dense" or "sparse"
	Make  func() *chg.Graph
}

// TableBuildConfigs returns the benchmark family: dense Figure-style
// hierarchies (every member visible almost everywhere — pruning can
// win little) and sparse many-member hierarchies (each member's
// support cone is a sliver of the hierarchy — the pruned regime).
func TableBuildConfigs() []TableBuildConfig {
	return []TableBuildConfig{
		{"realistic-6x4", "dense", func() *chg.Graph { return hiergen.Realistic(6, 4) }},
		{"sparse-200c-1000m", "sparse", func() *chg.Graph { return hiergen.SparseMembers(200, 1000, 3, 7) }},
		{"sparse-400c-2000m", "sparse", func() *chg.Graph { return hiergen.SparseMembers(400, 2000, 3, 11) }},
	}
}

// TableBuildStrategy is one whole-table construction under test.
type TableBuildStrategy struct {
	Name  string
	Build func(k *core.Kernel) *core.Table
}

// TableBuildStrategies returns the strategies E14 and the benchmarks
// compare. "batched-n" uses all available workers (GOMAXPROCS).
func TableBuildStrategies() []TableBuildStrategy {
	return []TableBuildStrategy{
		{"naive", func(k *core.Kernel) *core.Table { return k.BuildTableUnpruned() }},
		{"eager", func(k *core.Kernel) *core.Table { return k.BuildTable() }},
		{"batched-1", func(k *core.Kernel) *core.Table { return core.BuildSemTable(k, 1) }},
		{"batched-n", func(k *core.Kernel) *core.Table { return core.BuildSemTable(k, 0) }},
	}
}

// RunE14 prints the build-time and visited-work comparison.
func RunE14(w io.Writer) error {
	fmt.Fprintln(w, "Whole-table build: support-pruned batched pass vs prior strategies.")
	fmt.Fprintln(w)

	t1 := newTable("hierarchy", "|N|", "|M|", "entries", "naive", "eager", "batched-1", "batched-n", "vs eager", "vs naive")
	for _, cfg := range TableBuildConfigs() {
		g := cfg.Make()
		times := map[string]time.Duration{}
		var entries int
		for _, s := range TableBuildStrategies() {
			build := s.Build
			times[s.Name] = timePerOp(20*time.Millisecond, func() {
				entries = build(core.NewKernel(g)).Entries()
			})
		}
		t1.add(cfg.Name, g.NumClasses(), g.NumMemberNames(), entries,
			times["naive"], times["eager"], times["batched-1"], times["batched-n"],
			fmt.Sprintf("%.2fx", float64(times["eager"])/float64(times["batched-1"])),
			fmt.Sprintf("%.2fx", float64(times["naive"])/float64(times["batched-1"])))
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
	for _, cfg := range TableBuildConfigs() {
		g := cfg.Make()
		work := core.MeasureTableBuildWork(g)
		t2.add(cfg.Name, work.Entries, work.Blocks, work.BatchedClassVisits,
			work.BatchedWalkSlots, work.UnprunedClassVisits,
			fmt.Sprintf("%.1f%%", 100*(1-float64(work.BatchedClassVisits)/float64(work.UnprunedClassVisits))))
	}
	t2.write(w)
	return nil
}
