package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// Verdicts of -compare, per (workload, metric).
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved" // a side's spread is wider than the bound
)

// compareRow is one (workload, metric) line of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   []float64
	Bound                  float64
	Change                 float64 // signed share of A's median; positive is worse
	Verdict                string
}

// compareMain implements -compare A B: it prints one row per workload
// and metric the two results files share and exits 1 when any row is
// worse or unresolved or a lint digest changed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two results.json files")
		return 2
	}
	var files [2]*resultsFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			files[i] = &resultsFile{}
			err = json.Unmarshal(data, files[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows, digests, err := compareResults(files[0], files[1], sp)
	if err != nil {
		fmt.Fprintln(stderr, "bench: refusing to compare:", err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	bad := len(digests) > 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", r.Workload, r.Metric, r.Unit,
			medianQuartiles(r.A), medianQuartiles(r.B), 100*r.Change, 100*r.Bound, r.Verdict)
		bad = bad || r.Verdict == verdictWorse || r.Verdict == verdictUnresolved
	}
	tw.Flush()
	for _, d := range digests {
		fmt.Fprintln(stdout, "lint digest changed:", d)
	}
	if bad {
		return 1
	}
	return 0
}

func medianQuartiles(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

// compareResults compares the untraced runs of every workload in both
// files. It refuses files whose runs are not comparable: another
// GOMAXPROCS, run length or input fingerprint means a difference that
// is not the code's.
func compareResults(a, b *resultsFile, sp *specFile) ([]compareRow, []string, error) {
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return nil, nil, fmt.Errorf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	if a.Seconds != b.Seconds || a.Smoke != b.Smoke {
		return nil, nil, fmt.Errorf("run lengths differ (-seconds %g vs %g, -smoke %t vs %t)",
			a.Seconds, b.Seconds, a.Smoke, b.Smoke)
	}
	var rows []compareRow
	var digests []string
	for _, w := range sp.workloadNames() {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			return nil, nil, fmt.Errorf("%s inputs differ (sha256 %s vs %s)", w, wa.Fingerprint, wb.Fingerprint)
		}
		for _, m := range sp.endToEnd() {
			if !m.appliesTo(w) {
				continue
			}
			row := compareRow{Workload: w, Metric: m.Name, Unit: m.Unit, A: wa.values(m.Name), B: wb.values(m.Name), Bound: m.Bound}
			row.Change, row.Verdict = verdict(m.Better == "higher", m.Bound, row.A, row.B)
			rows = append(rows, row)
		}
		var changed []string
		for file, d := range wa.Runs[0].LintDigests {
			if wb.Runs[0].LintDigests[file] != d {
				changed = append(changed, file)
			}
		}
		if len(changed) > 0 {
			slices.Sort(changed)
			digests = append(digests, fmt.Sprintf("%s: %d of %d files: %s", w, len(changed),
				len(wa.Runs[0].LintDigests), strings.Join(changed, ", ")))
		}
	}
	return rows, digests, nil
}

// verdict compares B's median with A's. A side whose quartile spread is
// wider than the bound leaves the comparison unresolved, unless every
// run of B is better than every run of A.
func verdict(higherIsBetter bool, bound float64, a, b []float64) (change float64, v string) {
	am, bm := median(a), median(b)
	change = (bm - am) / math.Abs(am)
	switch {
	case am == bm:
		change = 0
	case am == 0:
		change = math.Copysign(math.Inf(1), bm)
	}
	allBetter := slices.Max(b) < slices.Min(a)
	if higherIsBetter {
		change = -change
		allBetter = slices.Min(b) > slices.Max(a)
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter {
			return change, verdictBetter
		}
		return change, verdictUnresolved
	}
	switch {
	case change > bound:
		return change, verdictWorse
	case -change > bound:
		return change, verdictBetter
	}
	return change, verdictWithin
}
