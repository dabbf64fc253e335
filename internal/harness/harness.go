// Package harness regenerates every figure and measurable claim of
// the paper as a printed experiment (E1–E20, plus ablations A1–A4),
// and holds the benchmark-family registry (Families) behind E14–E20,
// the BENCH_*.json records and BenchmarkFamilies. cmd/experiments is
// its CLI; EXPERIMENTS.md records one captured run and compares it
// against what the paper reports.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1: non-virtual inheritance makes p->m ambiguous", RunE1},
		{"E2", "Figure 2: virtual inheritance makes p->m resolve to D::m", RunE2},
		{"E3", "Figure 3: Defns sets and lookups for foo and bar", RunE3},
		{"E4", "Figures 4–5: definition propagation with killing", RunE4},
		{"E5", "Figures 6–7: abstraction propagation (the algorithm)", RunE5},
		{"E6", "Figure 9: the g++ false-ambiguity counterexample", RunE6},
		{"E7", "Section 5 complexity: single-lookup and whole-table scaling", RunE7},
		{"E8", "Section 7.1: exponential subobject graphs vs the CHG algorithm", RunE8},
		{"E9", "Section 7.1: share of front-end time spent in member lookup", RunE9},
		{"E10", "Section 7.2: the top-sort shortcut — speed and silent failures", RunE10},
		{"E11", "Object model: Figure 9 executed over a concrete layout; vtable deltas", RunE11},
		{"E12", "Extension: serving concurrent queries from one engine snapshot", RunE12},
		{"E13", "Extension: packed cells — table memory footprint and warm-hit allocations", RunE13},
		{"E14", "Extension: support-pruned, word-batched whole-table construction", runFamily("table_build")},
		{"E15", "Extension: warm-cache carry-over on the edit→serve hot path", runFamily("edit_relookup")},
		{"E16", "Extension: resolution backends — dominance, C3/MRO, gxx through one cache path", runFamily("mro")},
		{"E17", "Extension: cone-scoped incremental lint vs full re-analysis", runFamily("lint")},
		{"E18", "Extension: zero-copy snapshot images — mmap warm start vs cold rebuild vs gob decode", runFamily("image")},
		{"E19", "Extension: 100k-class scale — streaming build and bulk-edit cone carry", runFamily("scale")},
		{"E20", "Extension: bulk devirtualization — batched CHA target resolution for call-site streams", runFamily("devirt")},
		{"A1", "Ablation: killing definitions vs propagating everything", RunA1},
		{"A2", "Ablation: (L,V) abstractions vs carrying full paths", RunA2},
		{"A3", "Ablation: eager table vs lazy memoized lookup", RunA3},
		{"A4", "Extension: incremental maintenance under hierarchy edits", RunA4},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs every experiment, writing each under a header.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := runOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

func runOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
	if err := e.Run(w); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// --- measurement helpers ---

// measureBudget is the timing budget of each measurement in the
// non-family experiments: about what the best-of-three rounds it
// replaced spent.
const measureBudget = 15 * time.Millisecond

// timeOp times f with Time for measureBudget, after one untimed call,
// and returns the mean per call.
func timeOp(f func()) time.Duration {
	f()
	return Time(1, measureBudget, func() int { f(); return 1 }).PerOp()
}

// table is a minimal fixed-width text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = formatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
