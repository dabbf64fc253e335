package harness

// This file holds the benchmark-family registry: one Family per
// BENCH_<name>.json record. cmd/benchjson writes the records, the
// experiments E14–E20 print their tables, BenchmarkFamilies runs them
// under `go test -bench`, and the tests smoke them, all by iterating
// Families() and timing each strategy's Step with Time.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// Family is one benchmark family: a grid of hierarchy configs, each
// timed under its strategies, recorded as BENCH_<Name>.json and
// printed by one experiment.
type Family struct {
	Name       string // the benchjson -family value; the record is File()
	Benchmark  string // the record's "benchmark" id
	Unit       string // the record's "unit_note"
	Experiment string // the experiment that prints the family (E14–E20)
	Slow       bool   // minutes per run: benchjson measures it only when named

	Configs []Config // the recorded grid
	Smoke   []Config // the CI grid: TestFamilySmoke and BenchmarkFamilies
	Shown   []Config // the grid the experiment prints; nil means Configs

	// Extras fills a config's row from every strategy's timing and the
	// hierarchy itself: speedups, work profiles, divergence counts.
	Extras func(r *Row, g *chg.Graph)
	// Print writes the experiment's text and tables from measured rows.
	Print func(w io.Writer, rows []*Row)
}

// File is the name of the family's record.
func (f Family) File() string { return "BENCH_" + f.Name + ".json" }

// Config is one hierarchy of a family's grid and the strategies timed
// on it.
type Config struct {
	Name       string
	Shape      string // "dense", "sparse", "conflict" or "giant"
	Make       func() *chg.Graph
	Strategies []Strategy
}

// Strategy is one way of doing a family's work. Setup builds a session
// over the config's hierarchy and settles it into the state Step is
// timed in; it may keep artifacts in dir, which outlives the session.
type Strategy struct {
	Name  string
	Setup func(g *chg.Graph, dir string) (*Session, error)
}

// Session is one strategy set up on one hierarchy.
type Session struct {
	// Step does one round of the work and returns the ops it did: 1
	// build or round, n call sites, n edits. Time reports per op.
	Step func() int
	// Done, if set, records what the session observed into its
	// config's row once its timing is known.
	Done func(r *Row, t Timing)
}

// settle takes one untimed step — lazy initialization, page cache, the
// steady warm state — and returns the session.
func settle(s *Session) (*Session, error) {
	s.Step()
	return s, nil
}

// Timing is one strategy's measurement; the tagged fields are the
// record's per-strategy keys.
type Timing struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"` // ops timed
	Seconds     float64 `json:"seconds"`    // wall time timed

	Steps         int    `json:"-"`
	PeakHeapBytes uint64 `json:"-"` // peak heap above the post-GC start
}

// PerOp is the mean wall time per op.
func (t Timing) PerOp() time.Duration { return time.Duration(t.NsPerOp) }

// Time is the one timing helper. After a garbage collection it runs
// step at least steps times and until budget has elapsed, and reports
// the mean over every timed step: wall time, heap allocations and
// allocated bytes per op, plus the peak heap the steps reached.
func Time(steps int, budget time.Duration, step func() int) Timing {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()
	n, ops := 0, 0
	start := time.Now()
	var elapsed time.Duration
	for n < steps || elapsed < budget {
		ops += step()
		n++
		elapsed = time.Since(start)
	}
	peak := sampler.Stop()
	runtime.ReadMemStats(&after)
	per := int64(max(ops, 1))
	return Timing{
		NsPerOp:       elapsed.Nanoseconds() / per,
		AllocsPerOp:   int64(after.Mallocs-before.Mallocs) / per,
		BytesPerOp:    int64(after.TotalAlloc-before.TotalAlloc) / per,
		Iterations:    ops,
		Seconds:       elapsed.Seconds(),
		Steps:         n,
		PeakHeapBytes: peak - min(peak, before.HeapAlloc),
	}
}

// heapSampler watches HeapAlloc from a background goroutine.
// ReadMemStats stops the world, so the interval is a compromise: 15ms
// catches the transient matrices of even a short build phase while
// costing the measurement well under a percent.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(15 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s.peak = max(s.peak, ms.HeapAlloc)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak HeapAlloc observed
// (including one final read, so short phases are never missed).
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return max(s.peak, ms.HeapAlloc)
}

// Row is one config's measurement: the record's per-config object,
// with keys in record order. A family fills only its own keys; the
// untagged fields are printed by the experiments but not recorded.
type Row struct {
	Name                string            `json:"name"`
	Shape               string            `json:"shape"`
	Classes             int               `json:"classes"`
	MemberNames         int               `json:"member_names"`
	Entries             int               `json:"entries,omitempty"`
	Blocks              int               `json:"blocks,omitempty"`
	BatchedClassVisits  int               `json:"batched_class_visits,omitempty"`
	UnprunedClassVisits int               `json:"unpruned_class_visits,omitempty"`
	Strategies          map[string]Timing `json:"strategies"`
	SpeedupVsEager      float64           `json:"batched_speedup_vs_eager,omitempty"`
	SpeedupVsNaive      float64           `json:"batched_speedup_vs_naive,omitempty"`

	CacheSurvival     float64 `json:"cache_survival,omitempty"`
	CarrySpeedupCold  float64 `json:"carry_speedup_vs_cold,omitempty"`
	CarriedEntries    int     `json:"carried_entries,omitempty"`
	InvalidatedConeSz int     `json:"invalidated_cone_entries,omitempty"`

	DivergentCells map[string]int `json:"divergent_cells_vs_dominance,omitempty"`

	ConeSpeedupVsFull  float64 `json:"cone_speedup_vs_full,omitempty"`
	MemberTasksPerEdit float64 `json:"member_tasks_per_edit,omitempty"`
	RowTasksPerEdit    float64 `json:"row_tasks_per_edit,omitempty"`
	StructTasksPerEdit float64 `json:"structural_tasks_per_edit,omitempty"`

	ArtifactBytes   map[string]int64 `json:"artifact_bytes,omitempty"`
	MmapSpeedupCold float64          `json:"mmap_speedup_vs_cold_rebuild,omitempty"`
	MmapSpeedupGob  float64          `json:"mmap_speedup_vs_gob_decode,omitempty"`

	PeakHeapBytes    map[string]uint64  `json:"peak_heap_bytes,omitempty"`
	BytesPerClass    map[string]float64 `json:"bytes_per_class,omitempty"`
	Republishes      map[string]int     `json:"republishes,omitempty"`
	BulkVsSerialEdit float64            `json:"bulk_carry_speedup_vs_serial_per_edit,omitempty"`

	SitesPerSec      map[string]float64 `json:"sites_per_sec,omitempty"`
	CallSites        int                `json:"call_sites,omitempty"`
	UniqueSites      int                `json:"unique_sites,omitempty"`
	MonomorphicSites int                `json:"monomorphic_sites,omitempty"`
	PolymorphicSites int                `json:"polymorphic_sites,omitempty"`
	UnresolvedSites  int                `json:"unresolved_sites,omitempty"`
	BatchedVsSingle  float64            `json:"batched_speedup_vs_single_call,omitempty"`
	ParallelVsBatch  float64            `json:"parallel_speedup_vs_batched,omitempty"`

	WalkSlots int                          `json:"-"` // E14: batched topological-walk slots
	Stream    map[string]core.StreamStats  `json:"-"` // E19: per build strategy
	Carry     map[string]engine.CarryStats `json:"-"` // E19: last republish per session strategy
}

// Record is the JSON document a family's measurement is written as.
type Record struct {
	Benchmark string `json:"benchmark"`
	Unit      string `json:"unit_note"`
	Configs   []*Row `json:"configs"`
}

// speedup is how many times faster strategy b ran than strategy a
// (0 when either is missing).
func (r *Row) speedup(a, b string) float64 {
	ta, tb := r.Strategies[a], r.Strategies[b]
	if ta.NsPerOp == 0 || tb.NsPerOp == 0 {
		return 0
	}
	return float64(ta.NsPerOp) / float64(tb.NsPerOp)
}

// put sets m[k], allocating the map on first use.
func put[V any](m *map[string]V, k string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[k] = v
}

// Measure times every strategy of every config in grid for about
// budget each (at least one step) and returns one row per config.
// Strategies are set up one at a time, so only one session is live;
// progress, if non-nil, gets one line per strategy.
func (f Family) Measure(grid []Config, budget time.Duration, progress io.Writer) ([]*Row, error) {
	dir, err := os.MkdirTemp("", "cpplookup-"+f.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rows := make([]*Row, 0, len(grid))
	for _, cfg := range grid {
		g := cfg.Make()
		r := &Row{Name: cfg.Name, Shape: cfg.Shape, Classes: g.NumClasses(),
			MemberNames: g.NumMemberNames(), Strategies: map[string]Timing{}}
		for _, s := range cfg.Strategies {
			runtime.GC() // release the previous session before building the next
			sess, err := s.Setup(g, dir)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", f.Name, cfg.Name, s.Name, err)
			}
			t := Time(1, budget, sess.Step)
			r.Strategies[s.Name] = t
			if sess.Done != nil {
				sess.Done(r, t)
			}
			if progress != nil {
				fmt.Fprintf(progress, "%s/%s/%s: %d ns/op over %d ops\n", f.Name, cfg.Name, s.Name, t.NsPerOp, t.Iterations)
			}
		}
		if f.Extras != nil {
			f.Extras(r, g)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Families returns the registry, in record order.
func Families() []Family {
	return []Family{tableBuildFamily(), editRelookupFamily(), mroFamily(), lintFamily(),
		imageFamily(), scaleFamily(), devirtFamily()}
}

// experimentBudget is each strategy's timing budget in an experiment.
const experimentBudget = 20 * time.Millisecond

// runFamily is the experiment of the named family: it measures the
// family's shown grid and prints the rows.
func runFamily(name string) func(w io.Writer) error {
	return func(w io.Writer) error {
		for _, f := range Families() {
			if f.Name != name {
				continue
			}
			grid := f.Shown
			if grid == nil {
				grid = f.Configs
			}
			rows, err := f.Measure(grid, experimentBudget, nil)
			if err != nil {
				return err
			}
			f.Print(w, rows)
			return nil
		}
		return fmt.Errorf("no benchmark family %q", name)
	}
}

// Graph makers of the hierarchy shapes the fast families share.
func realistic6x4() *chg.Graph { return hiergen.Realistic(6, 4) }
func sparse200() *chg.Graph    { return hiergen.SparseMembers(200, 1000, 3, 7) }
func sparse400() *chg.Graph    { return hiergen.SparseMembers(400, 2000, 3, 11) }

// servingConfigs is the E15 hierarchy grid, shared by the edit, lint,
// image and table-build families so their numbers compose.
func servingConfigs(ss []Strategy) []Config {
	return []Config{
		{"realistic-6x4", "dense", realistic6x4, ss},
		{"sparse-200c-1000m", "sparse", sparse200, ss},
		{"sparse-400c-2000m", "sparse", sparse400, ss},
	}
}

// per is the named strategy's mean wall time per op.
func (r *Row) per(strategy string) time.Duration { return r.Strategies[strategy].PerOp() }
