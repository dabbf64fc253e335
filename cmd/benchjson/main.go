// Command benchjson runs the machine-readable benchmark families —
// the same configs and strategies as BenchmarkTableBuild / experiment
// E14, BenchmarkEditRelookup / experiment E15, BenchmarkSemanticsTable
// / experiment E16, BenchmarkLintRelint / experiment E17, and
// BenchmarkImageLoad / experiment E18 — through testing.Benchmark and
// writes the results as JSON, so the performance trajectory is
// machine-readable across PRs:
//
//	go run ./cmd/benchjson -o BENCH_table_build.json -edit-o BENCH_edit_relookup.json -mro-o BENCH_mro.json -lint-o BENCH_lint.json -image-o BENCH_image.json
//
// For the table-build family it records, per strategy, ns/op,
// allocs/op and bytes/op, alongside the analytic work profile and the
// batched-over-eager / batched-over-naive speedups. For the
// edit-relookup family it records the same timing triple per serving
// strategy, the warm-carry speedup over cold rebuild, and the fraction
// of the warm cache surviving each carry.
// For the lint-relint family it records the timing triple per
// re-analysis strategy, the cone-over-full speedup, and the per-edit
// bucket re-evaluation counts of the cone strategy. For the
// cross-semantics family the strategy axis is the resolution
// backend (-semantics narrows it for local runs; the committed
// snapshot carries all three), each strategy a whole-table build
// through core.BuildSemTable, plus the per-backend counts of cells
// answered differently from dominance. For the image-load family it
// records the timing triple per warm-start strategy (mmap-load,
// cold-rebuild, gob-decode — all restoring a fully warmed
// three-backend cache), each strategy's persisted artifact size, and
// the mmap speedups over both baselines. For the devirt family
// (-devirt-o, skipped when empty — the 100k-class stream takes
// minutes) it records ns per call site for each drain strategy
// (single-call probe, batched, parallel-batched) over Zipf call-site
// streams, the stream's monomorphic/polymorphic/unresolved census,
// and the batched-over-single-call speedup.
//
// With -check, no benchmarks run: the existing JSON snapshots are
// verified to structurally match the current families (benchmark
// names, config names, strategy names) so CI catches a family edited
// without refreshing its golden snapshot. Timings are never compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cpplookup/internal/core"
	"cpplookup/internal/harness"
	"cpplookup/internal/semantics"
)

type strategyResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Seconds     float64 `json:"seconds"`
}

type configResult struct {
	Name                string                    `json:"name"`
	Shape               string                    `json:"shape"`
	Classes             int                       `json:"classes"`
	MemberNames         int                       `json:"member_names"`
	Entries             int                       `json:"entries,omitempty"`
	Blocks              int                       `json:"blocks,omitempty"`
	BatchedClassVisits  int                       `json:"batched_class_visits,omitempty"`
	UnprunedClassVisits int                       `json:"unpruned_class_visits,omitempty"`
	Strategies          map[string]strategyResult `json:"strategies"`
	SpeedupVsEager      float64                   `json:"batched_speedup_vs_eager,omitempty"`
	SpeedupVsNaive      float64                   `json:"batched_speedup_vs_naive,omitempty"`

	// Edit-relookup metrics (absent for the table-build family).
	CacheSurvival     float64 `json:"cache_survival,omitempty"`
	CarrySpeedupCold  float64 `json:"carry_speedup_vs_cold,omitempty"`
	CarriedEntries    int     `json:"carried_entries,omitempty"`
	InvalidatedConeSz int     `json:"invalidated_cone_entries,omitempty"`

	// Cross-semantics metrics (absent for the other families): table
	// cells the backend answers differently from dominance.
	DivergentCells map[string]int `json:"divergent_cells_vs_dominance,omitempty"`

	// Lint-relint metrics (absent for the other families): the
	// cone-scoped session's speedup over full re-analysis, and its
	// bucket re-evaluations per edit by footprint.
	ConeSpeedupVsFull  float64 `json:"cone_speedup_vs_full,omitempty"`
	MemberTasksPerEdit float64 `json:"member_tasks_per_edit,omitempty"`
	RowTasksPerEdit    float64 `json:"row_tasks_per_edit,omitempty"`
	StructTasksPerEdit float64 `json:"structural_tasks_per_edit,omitempty"`

	// Image-load metrics (absent for the other families): each
	// strategy's persisted artifact size and the mmap-load speedups.
	ArtifactBytes   map[string]int64 `json:"artifact_bytes,omitempty"`
	MmapSpeedupCold float64          `json:"mmap_speedup_vs_cold_rebuild,omitempty"`
	MmapSpeedupGob  float64          `json:"mmap_speedup_vs_gob_decode,omitempty"`

	// Scale metrics (absent for the other families). Build strategies
	// record their peak transient heap and its per-class flatness axis;
	// session strategies record republish counts, and the bulk session
	// its ns/edit advantage over the probed serial-per-edit loop. For
	// session strategies ns_per_op is ns per edit and iterations the
	// edits applied (the serial probe is bounded and normalized).
	PeakHeapBytes    map[string]uint64  `json:"peak_heap_bytes,omitempty"`
	BytesPerClass    map[string]float64 `json:"bytes_per_class,omitempty"`
	Republishes      map[string]int     `json:"republishes,omitempty"`
	BulkVsSerialEdit float64            `json:"bulk_carry_speedup_vs_serial_per_edit,omitempty"`

	// Devirt metrics (absent for the other families). ns_per_op is ns
	// per call site (the single-call strategy is a bounded probe,
	// normalized; iterations records the sites actually timed per run).
	// The site census tallies the stream once through the batched
	// resolver: monomorphic + polymorphic + unresolved == call_sites.
	SitesPerSec      map[string]float64 `json:"sites_per_sec,omitempty"`
	CallSites        int                `json:"call_sites,omitempty"`
	UniqueSites      int                `json:"unique_sites,omitempty"`
	MonomorphicSites int                `json:"monomorphic_sites,omitempty"`
	PolymorphicSites int                `json:"polymorphic_sites,omitempty"`
	UnresolvedSites  int                `json:"unresolved_sites,omitempty"`
	FastPathSites    int                `json:"fast_path_sites,omitempty"`
	BatchedVsSingle  float64            `json:"batched_speedup_vs_single_call,omitempty"`
	ParallelVsBatch  float64            `json:"parallel_speedup_vs_batched,omitempty"`
}

type report struct {
	Benchmark string         `json:"benchmark"`
	Unit      string         `json:"unit_note"`
	Configs   []configResult `json:"configs"`
}

func main() {
	out := flag.String("o", "BENCH_table_build.json", "table-build output file")
	editOut := flag.String("edit-o", "BENCH_edit_relookup.json", "edit-relookup output file")
	mroOut := flag.String("mro-o", "BENCH_mro.json", "cross-semantics output file")
	lintOut := flag.String("lint-o", "BENCH_lint.json", "lint-relint output file")
	imageOut := flag.String("image-o", "BENCH_image.json", "image-load output file")
	sems := flag.String("semantics", "", "comma-separated backends the cross-semantics family measures: dominance, c3, gxx (default all; a narrowed snapshot fails -check)")
	scaleOut := flag.String("scale-o", "", "scale-family output file (e.g. BENCH_scale.json); empty skips the family — a 100k-class run takes minutes")
	devirtOut := flag.String("devirt-o", "", "devirt-family output file (e.g. BENCH_devirt.json); empty skips the family — the 100k-class stream takes minutes")
	scaleSmoke := flag.Bool("scale-smoke", false, "run only the bounded scale smoke (20k-class streamed build + 100-edit bulk-carry session) and verify its invariants; no JSON is written")
	devirtSmoke := flag.Bool("devirt-smoke", false, "run only the bounded devirt smoke (200k-site stream over a 20k-class hierarchy) and verify its invariants; no JSON is written")
	check := flag.Bool("check", false, "verify the JSON snapshots structurally match the current families instead of running benchmarks")
	flag.Parse()

	if *check {
		scalePath := *scaleOut
		if scalePath == "" {
			scalePath = "BENCH_scale.json"
		}
		devirtPath := *devirtOut
		if devirtPath == "" {
			devirtPath = "BENCH_devirt.json"
		}
		ok := checkFile(*out, "BenchmarkTableBuild", tableBuildShape()) &&
			checkFile(*editOut, "BenchmarkEditRelookup", editRelookupShape()) &&
			checkFile(*mroOut, "BenchmarkSemanticsTable", semanticsShape()) &&
			checkFile(*lintOut, "BenchmarkLintRelint", lintRelintShape()) &&
			checkFile(*imageOut, "BenchmarkImageLoad", imageShape()) &&
			checkFile(scalePath, "BenchmarkScale", scaleShape()) &&
			checkFile(devirtPath, "BenchmarkDevirt", devirtShape())
		if !ok {
			os.Exit(1)
		}
		fmt.Println("benchmark JSON snapshots are structurally current")
		return
	}
	if *scaleSmoke {
		if err := runScaleSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: scale smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *devirtSmoke {
		if err := runDevirtSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: devirt smoke:", err)
			os.Exit(1)
		}
		return
	}

	backends, err := selectBackends(*sems)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	writeReport(*out, tableBuildReport())
	writeReport(*editOut, editRelookupReport())
	writeReport(*mroOut, semanticsReport(backends))
	writeReport(*lintOut, lintRelintReport())
	writeReport(*imageOut, imageReport())
	if *scaleOut != "" {
		writeReport(*scaleOut, scaleReport())
	}
	if *devirtOut != "" {
		writeReport(*devirtOut, devirtReport())
	}
}

// selectBackends resolves the -semantics flag against the family's
// backend axis, preserving the family order.
func selectBackends(list string) ([]harness.SemanticsBackend, error) {
	all := harness.SemanticsBackends()
	if list == "" {
		return all, nil
	}
	ids, err := semantics.ParseIDs(list)
	if err != nil {
		return nil, err
	}
	want := map[core.SemanticsID]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []harness.SemanticsBackend
	for _, s := range all {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	return out, nil
}

func tableBuildReport() report {
	rep := report{
		Benchmark: "BenchmarkTableBuild",
		Unit:      "ns_per_op is wall time per whole-table build; visits are analytic topological-walk slot counts",
	}
	for _, cfg := range harness.TableBuildConfigs() {
		g := cfg.Make()
		work := core.MeasureTableBuildWork(g)
		cr := configResult{
			Name:                cfg.Name,
			Shape:               cfg.Shape,
			Classes:             g.NumClasses(),
			MemberNames:         g.NumMemberNames(),
			Entries:             work.Entries,
			Blocks:              work.Blocks,
			BatchedClassVisits:  work.BatchedClassVisits,
			UnprunedClassVisits: work.UnprunedClassVisits,
			Strategies:          map[string]strategyResult{},
		}
		for _, s := range harness.TableBuildStrategies() {
			build := s.Build
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					build(core.NewKernel(g))
				}
			})
			cr.Strategies[s.Name] = toStrategyResult(r)
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", cfg.Name, s.Name, r.NsPerOp(), r.N)
		}
		cr.SpeedupVsEager = ratio(cr.Strategies["eager"].NsPerOp, cr.Strategies["batched-1"].NsPerOp)
		cr.SpeedupVsNaive = ratio(cr.Strategies["naive"].NsPerOp, cr.Strategies["batched-1"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

func editRelookupReport() report {
	rep := report{
		Benchmark: "BenchmarkEditRelookup",
		Unit:      "ns_per_op is wall time per edit→republish→full-requery round on a warm hierarchy; cache_survival is the carried fraction of the predecessor's cache",
	}
	for _, cfg := range harness.EditRelookupConfigs() {
		g := cfg.Make()
		cr := configResult{
			Name:        cfg.Name,
			Shape:       cfg.Shape,
			Classes:     g.NumClasses(),
			MemberNames: g.NumMemberNames(),
			Strategies:  map[string]strategyResult{},
		}
		for _, s := range harness.EditRelookupStrategies() {
			sess, err := s.Setup(g)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			sess.Step() // settle into the steady warm state
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sess.Step()
				}
			})
			cr.Strategies[s.Name] = toStrategyResult(r)
			if s.Name == "warm-carry" {
				st := sess.Carry()
				cr.CacheSurvival = harness.SurvivalFraction(st)
				cr.CarriedEntries = st.Carried
				cr.InvalidatedConeSz = st.Invalidated
			}
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", cfg.Name, s.Name, r.NsPerOp(), r.N)
		}
		cr.CarrySpeedupCold = ratio(cr.Strategies["cold-rebuild"].NsPerOp, cr.Strategies["warm-carry"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

func lintRelintReport() report {
	rep := report{
		Benchmark: "BenchmarkLintRelint",
		Unit:      "ns_per_op is wall time per edit→republish→re-analyze round on an analyzed hierarchy; tasks_per_edit count the cone strategy's bucket re-evaluations by footprint",
	}
	for _, cfg := range harness.LintRelintConfigs() {
		g := cfg.Make()
		cr := configResult{
			Name:        cfg.Name,
			Shape:       cfg.Shape,
			Classes:     g.NumClasses(),
			MemberNames: g.NumMemberNames(),
			Strategies:  map[string]strategyResult{},
		}
		for _, s := range harness.LintRelintStrategies() {
			sess, err := s.Setup(g)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			sess.Step() // settle into the steady warm state
			before := sess.Stats()
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sess.Step()
				}
			})
			cr.Strategies[s.Name] = toStrategyResult(r)
			if s.Name == "cone-relint" {
				// testing.Benchmark probes with growing b.N; the counter
				// delta over every probe round divided by total steps is
				// still the exact per-edit rate.
				after := sess.Stats()
				steps := after.Syncs - before.Syncs
				if steps > 0 {
					cr.MemberTasksPerEdit = float64(after.MemberTasks-before.MemberTasks) / float64(steps)
					cr.RowTasksPerEdit = float64(after.RowTasks-before.RowTasks) / float64(steps)
					cr.StructTasksPerEdit = float64(after.StructuralTasks-before.StructuralTasks) / float64(steps)
				}
			}
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", cfg.Name, s.Name, r.NsPerOp(), r.N)
		}
		cr.ConeSpeedupVsFull = ratio(cr.Strategies["full-relint"].NsPerOp, cr.Strategies["cone-relint"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

func semanticsReport(backends []harness.SemanticsBackend) report {
	rep := report{
		Benchmark: "BenchmarkSemanticsTable",
		Unit:      "ns_per_op is wall time per whole-table build through core.BuildSemTable under the named backend, backend construction included; divergent cells compare each backend's table against dominance",
	}
	measureAll := len(backends) == len(harness.SemanticsBackends())
	for _, cfg := range harness.SemanticsTableConfigs() {
		g := cfg.Make()
		cr := configResult{
			Name:        cfg.Name,
			Shape:       cfg.Shape,
			Classes:     g.NumClasses(),
			MemberNames: g.NumMemberNames(),
			Strategies:  map[string]strategyResult{},
		}
		for _, s := range backends {
			mk := s.New
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab := core.BuildSemTable(mk(g), 0)
					cr.Entries = tab.Entries()
				}
			})
			cr.Strategies[s.Name] = toStrategyResult(r)
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", cfg.Name, s.Name, r.NsPerOp(), r.N)
		}
		// Divergence counts need the dominance baseline, so they are
		// only meaningful (and only computed) for a full-axis run.
		if measureAll {
			cr.DivergentCells = map[string]int{}
			for id, n := range harness.SemanticsDivergences(g) {
				cr.DivergentCells[string(id)] = n
			}
		}
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

func imageReport() report {
	rep := report{
		Benchmark: "BenchmarkImageLoad",
		Unit:      "ns_per_op is wall time per warm start — restore a fully warmed three-backend snapshot and serve a probe of warm lookups; artifact_bytes is what each strategy persisted",
	}
	dir, err := os.MkdirTemp("", "benchjson-image-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	for _, cfg := range harness.ImageLoadConfigs() {
		g := cfg.Make()
		cr := configResult{
			Name:          cfg.Name,
			Shape:         cfg.Shape,
			Classes:       g.NumClasses(),
			MemberNames:   g.NumMemberNames(),
			Strategies:    map[string]strategyResult{},
			ArtifactBytes: map[string]int64{},
		}
		for _, s := range harness.ImageLoadStrategies() {
			sdir := filepath.Join(dir, cfg.Name+"-"+s.Name)
			if err := os.MkdirAll(sdir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			sess, err := s.Setup(g, sdir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			sess.Step() // settle page cache and lazy init
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sess.Step()
				}
			})
			cr.Strategies[s.Name] = toStrategyResult(r)
			if sess.ArtifactBytes > 0 {
				cr.ArtifactBytes[s.Name] = sess.ArtifactBytes
			}
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", cfg.Name, s.Name, r.NsPerOp(), r.N)
		}
		cr.MmapSpeedupCold = ratio(cr.Strategies["cold-rebuild"].NsPerOp, cr.Strategies["mmap-load"].NsPerOp)
		cr.MmapSpeedupGob = ratio(cr.Strategies["gob-decode"].NsPerOp, cr.Strategies["mmap-load"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

// scaleReport runs the scale family once per strategy — a 100k-class
// build is minutes, not microseconds, so each measurement is a single
// timed run (iterations records 1 for builds, the applied edit count
// for sessions) instead of a testing.Benchmark loop.
func scaleReport() report {
	rep := report{
		Benchmark: "BenchmarkScale",
		Unit:      "build strategies: ns_per_op is one whole-table build, peak_heap_bytes its transient heap above baseline; session strategies: ns_per_op is ns per edit of an edit→republish→probe-serve session (serial-carry is a bounded probe, normalized)",
	}
	for _, cfg := range harness.ScaleConfigs() {
		cr := configResult{
			Name:          cfg.Name,
			Shape:         "giant",
			Classes:       cfg.Classes,
			MemberNames:   cfg.Classes, // the build hierarchy's |M| tracks |N|
			Strategies:    map[string]strategyResult{},
			PeakHeapBytes: map[string]uint64{},
			BytesPerClass: map[string]float64{},
			Republishes:   map[string]int{},
		}
		for _, r := range harness.MeasureScaleBuilds(cfg) {
			cr.Strategies[r.Strategy] = strategyResult{
				NsPerOp:    r.Duration.Nanoseconds(),
				Iterations: 1,
				Seconds:    r.Duration.Seconds(),
			}
			cr.PeakHeapBytes[r.Strategy] = r.PeakHeapBytes
			cr.BytesPerClass[r.Strategy] = r.BytesPerClass
			if r.Entries > 0 {
				cr.Entries = r.Entries
			}
			fmt.Fprintf(os.Stderr, "%s/%s: %v (peak heap %d MiB)\n",
				cfg.Name, r.Strategy, r.Duration, r.PeakHeapBytes>>20)
		}
		sessions, err := harness.MeasureScaleSessions(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, r := range sessions {
			cr.Strategies[r.Strategy] = strategyResult{
				NsPerOp:    r.NsPerEdit,
				Iterations: r.Edits,
				Seconds:    r.Total.Seconds(),
			}
			cr.PeakHeapBytes[r.Strategy] = r.PeakHeapBytes
			cr.Republishes[r.Strategy] = r.Republishes
			if r.Strategy == "bulk-carry" {
				cr.CarriedEntries = r.Carried
				cr.InvalidatedConeSz = r.Invalidated
			}
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/edit over %d edits (%d republishes)\n",
				cfg.Name, r.Strategy, r.NsPerEdit, r.Edits, r.Republishes)
		}
		cr.BulkVsSerialEdit = ratio(cr.Strategies["serial-carry"].NsPerOp, cr.Strategies["bulk-carry"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

// devirtReport runs the devirt family once per strategy — each
// measurement is harness.MeasureDevirt's own repeat-until-300ms mean
// over the whole multi-million-site stream (the single-call strategy
// is a bounded probe, normalized to ns/site), not a testing.Benchmark
// loop.
func devirtReport() report {
	rep := report{
		Benchmark: "BenchmarkDevirt",
		Unit:      "ns_per_op is wall time per call site drained from a Zipf stream against a warm snapshot (single-call is a bounded probe, normalized); iterations records the sites timed per run",
	}
	for _, cfg := range harness.DevirtConfigs() {
		cr := configResult{
			Name:        cfg.Name,
			Shape:       "giant",
			Classes:     cfg.Classes,
			MemberNames: cfg.MemberNames,
			Strategies:  map[string]strategyResult{},
			SitesPerSec: map[string]float64{},
		}
		ms, stats, err := harness.MeasureDevirt(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, m := range ms {
			cr.Strategies[m.Strategy] = strategyResult{
				NsPerOp:    m.NsPerSite,
				Iterations: m.Sites,
				Seconds:    m.Total.Seconds(),
			}
			cr.SitesPerSec[m.Strategy] = m.SitesPerSec
			fmt.Fprintf(os.Stderr, "%s/%s: %d ns/site over %d sites (%.2fM sites/sec)\n",
				cfg.Name, m.Strategy, m.NsPerSite, m.Sites, m.SitesPerSec/1e6)
		}
		cr.CallSites = stats.Sites
		cr.UniqueSites = stats.UniqueSites
		cr.MonomorphicSites = stats.Monomorphic
		cr.PolymorphicSites = stats.Polymorphic
		cr.UnresolvedSites = stats.Unresolved
		cr.FastPathSites = stats.FastPath
		cr.BatchedVsSingle = ratio(cr.Strategies["single-call"].NsPerOp, cr.Strategies["batched"].NsPerOp)
		cr.ParallelVsBatch = ratio(cr.Strategies["batched"].NsPerOp, cr.Strategies["parallel-batched"].NsPerOp)
		rep.Configs = append(rep.Configs, cr)
	}
	return rep
}

// runDevirtSmoke is the CI-bounded devirt check: a 200k-site stream
// over a 20k-class Giant hierarchy, asserting the batch path actually
// beats the single-call baseline and the site census is coherent.
func runDevirtSmoke() error {
	cfg := harness.DevirtSmokeConfig()
	ms, stats, err := harness.MeasureDevirt(cfg)
	if err != nil {
		return err
	}
	byName := map[string]harness.DevirtMeasurement{}
	for _, m := range ms {
		byName[m.Strategy] = m
	}
	single, okS := byName["single-call"]
	batched, okB := byName["batched"]
	if !okS || !okB {
		return fmt.Errorf("missing strategies: got %d of 3", len(byName))
	}
	if batched.SitesPerSec < single.SitesPerSec {
		return fmt.Errorf("batched throughput %.0f sites/sec below single-call %.0f",
			batched.SitesPerSec, single.SitesPerSec)
	}
	if got := stats.Monomorphic + stats.Polymorphic + stats.Unresolved; got != stats.Sites {
		return fmt.Errorf("site census sums to %d, want %d", got, stats.Sites)
	}
	if stats.Monomorphic == 0 {
		return fmt.Errorf("no monomorphic sites on a Giant Zipf stream")
	}
	if stats.FastPath == 0 {
		return fmt.Errorf("fast path never fired on a Giant Zipf stream")
	}
	fmt.Printf("devirt smoke: %d sites (%d unique pairs), batched %.2fM sites/sec vs single-call %.2fM (%.1fx)\n",
		stats.Sites, stats.UniqueSites, batched.SitesPerSec/1e6, single.SitesPerSec/1e6,
		batched.SitesPerSec/single.SitesPerSec)
	fmt.Printf("devirt smoke: monomorphic %d (%.1f%%), polymorphic %d, unresolved %d, fast-path %d\n",
		stats.Monomorphic, 100*float64(stats.Monomorphic)/float64(stats.Sites),
		stats.Polymorphic, stats.Unresolved, stats.FastPath)
	return nil
}

// runScaleSmoke is the CI-bounded scale check: one streamed 20k-class
// build and one 100-edit bulk-carry session, with the structural
// invariants asserted rather than timed.
func runScaleSmoke() error {
	cfg := harness.ScaleSmokeConfig()
	builds := harness.MeasureScaleBuilds(cfg)
	if len(builds) != 1 || builds[0].Strategy != "streamed-build" {
		return fmt.Errorf("smoke config must run exactly the streamed build, got %d strategies", len(builds))
	}
	b := builds[0]
	if b.Entries == 0 || b.Stream.Chunks < 1 {
		return fmt.Errorf("degenerate streamed build: %+v", b.Stream)
	}
	if b.Stream.WorkingSetBytes > b.Stream.BudgetBytes {
		return fmt.Errorf("streamed working set %d exceeds budget %d", b.Stream.WorkingSetBytes, b.Stream.BudgetBytes)
	}
	fmt.Printf("scale smoke: streamed %d classes, %d entries in %v (%d chunks, peak heap %d MiB, %.0f B/class)\n",
		cfg.Classes, b.Entries, b.Duration, b.Stream.Chunks, b.PeakHeapBytes>>20, b.BytesPerClass)
	sessions, err := harness.MeasureScaleSessions(cfg)
	if err != nil {
		return err
	}
	s := sessions[0]
	wantRepub := (cfg.Edits + cfg.Batch - 1) / cfg.Batch
	if s.Republishes != wantRepub {
		return fmt.Errorf("bulk session republished %d times, want %d", s.Republishes, wantRepub)
	}
	if s.Carried == 0 {
		return fmt.Errorf("bulk session carried no cells — warm carry did not engage")
	}
	fmt.Printf("scale smoke: %d edits in %d bulk republishes, %v total, last carry %d cells (%d invalidated)\n",
		s.Edits, s.Republishes, s.Total, s.Carried, s.Invalidated)
	return nil
}

func toStrategyResult(r testing.BenchmarkResult) strategyResult {
	return strategyResult{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
		Seconds:     r.T.Seconds(),
	}
}

func writeReport(path string, rep report) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// familyShape is the structural golden a -check run compares a JSON
// snapshot against: every config name and its strategy names.
type familyShape map[string][]string

func tableBuildShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.TableBuildConfigs() {
		var names []string
		for _, s := range harness.TableBuildStrategies() {
			names = append(names, s.Name)
		}
		shape[cfg.Name] = names
	}
	return shape
}

func editRelookupShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.EditRelookupConfigs() {
		var names []string
		for _, s := range harness.EditRelookupStrategies() {
			names = append(names, s.Name)
		}
		shape[cfg.Name] = names
	}
	return shape
}

func lintRelintShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.LintRelintConfigs() {
		var names []string
		for _, s := range harness.LintRelintStrategies() {
			names = append(names, s.Name)
		}
		shape[cfg.Name] = names
	}
	return shape
}

func imageShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.ImageLoadConfigs() {
		var names []string
		for _, s := range harness.ImageLoadStrategies() {
			names = append(names, s.Name)
		}
		shape[cfg.Name] = names
	}
	return shape
}

func scaleShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.ScaleConfigs() {
		names := []string{"streamed-build", "bulk-carry"}
		if cfg.BatchedBuild {
			names = append(names, "batched-build")
		}
		if cfg.SerialProbe > 0 {
			names = append(names, "serial-carry")
		}
		shape[cfg.Name] = names
	}
	return shape
}

func devirtShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.DevirtConfigs() {
		shape[cfg.Name] = []string{"single-call", "batched", "parallel-batched"}
	}
	return shape
}

func semanticsShape() familyShape {
	shape := familyShape{}
	for _, cfg := range harness.SemanticsTableConfigs() {
		var names []string
		for _, s := range harness.SemanticsBackends() {
			names = append(names, s.Name)
		}
		shape[cfg.Name] = names
	}
	return shape
}

// checkFile verifies the snapshot at path covers exactly the current
// family: same benchmark name, same config set, and for each config
// the same strategy set. It reports (not just returns) every mismatch.
func checkFile(path, benchmark string, want familyShape) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s is missing or unreadable: %v (run `make bench-json`)\n", path, err)
		return false
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return false
	}
	ok := true
	if rep.Benchmark != benchmark {
		fmt.Fprintf(os.Stderr, "benchjson: %s records %q, want %q\n", path, rep.Benchmark, benchmark)
		ok = false
	}
	seen := map[string]bool{}
	for _, cr := range rep.Configs {
		seen[cr.Name] = true
		strategies, known := want[cr.Name]
		if !known {
			fmt.Fprintf(os.Stderr, "benchjson: %s has config %q the current family lacks\n", path, cr.Name)
			ok = false
			continue
		}
		for _, s := range strategies {
			if _, present := cr.Strategies[s]; !present {
				fmt.Fprintf(os.Stderr, "benchjson: %s config %q is missing strategy %q\n", path, cr.Name, s)
				ok = false
			}
		}
		for s := range cr.Strategies {
			if !contains(strategies, s) {
				fmt.Fprintf(os.Stderr, "benchjson: %s config %q has strategy %q the current family lacks\n", path, cr.Name, s)
				ok = false
			}
		}
	}
	for name := range want {
		if !seen[name] {
			fmt.Fprintf(os.Stderr, "benchjson: %s is missing config %q (run `make bench-json`)\n", path, name)
			ok = false
		}
	}
	return ok
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
