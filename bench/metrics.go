package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// specPath is the benchmark definition, relative to the repository root
// the benchmark runs from. It is the one list of the workloads, of the
// end-to-end metrics every workload reports with their bounds, and of
// the per-layer metrics.
const specPath = "BENCHMARK.json"

// specFile is BENCHMARK.json.
type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// metric describes one reported quantity; the computations live with
// each workload.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share by which -compare lets the metric worsen
	// before calling it a regression. A bound of 0 flags any increase.
	Bound float64 `json:"bound"`
	// Workloads names the workloads reporting the metric; nil means all.
	Workloads []string `json:"-"`
}

func readSpec() (*specFile, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var sp specFile
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name].run == nil {
			return nil, fmt.Errorf("%s: no workload %q", specPath, w.Name)
		}
	}
	return &sp, nil
}

func (sp *specFile) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// unlisted are the end-to-end metrics BENCHMARK.json cannot list, with
// their bounds: every metric it lists must be reported by every
// workload and never read 0, which rules out the serve-only metrics and
// fail_frac.
var unlisted = []metric{
	{Name: "req_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: serveOnly},
	{Name: "warm_start_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: serveOnly},
	{Name: "image_mb", Unit: "MB", Better: "lower", Bound: 0.01, Workloads: serveOnly},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0},
}

var serveOnly = []string{"serve"}

// endToEnd is every end-to-end metric a run reports, measured with
// tracing off: the ones BENCHMARK.json lists, then the unlisted ones.
func (sp *specFile) endToEnd() []metric {
	return append(append([]metric(nil), sp.EndToEnd...), unlisted...)
}

// appliesTo reports whether workload w reports m.
func (m metric) appliesTo(w string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile of xs (0 < p ≤ 1): the
// smallest sample with at least a share p of the samples at or below
// it. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), by which
// the benchmark's run-to-run spreads are judged. A single sample is its
// own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its
// median — the run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
