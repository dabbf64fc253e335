package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cpplookup/internal/core"
	"cpplookup/internal/hiergen"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's coordinator re-executes it as run children and lint
// workers, which the role environment variable selects. Tests run from
// the repository root, as the benchmark does.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) != "" {
		os.Exit(entry(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	// Under -race a process sleeps a second at exit by default, which
	// would run every lint worker past the smoke deadline.
	if err := os.Setenv("GORACE", "atexit_sleep_ms=0"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// runBench runs the coordinator in-process at smoke size and returns
// its standard output, its summary line and results.json.
func runBench(t *testing.T, args ...string) (string, summaryLine, resultsFile) {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "1", "-out", out}, args...)
	if code := entry(args, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, lines[len(lines)-1])
	}
	var res resultsFile
	data, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), line, res
}

// printed reports whether the report has a line naming metric m with
// its unit.
func printed(report string, m metric) bool {
	for _, l := range strings.Split(report, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == m.Name && slices.Contains(f, m.Unit) {
			return true
		}
	}
	return false
}

func TestSmokeUntraced(t *testing.T) {
	report, line, res := runBench(t, "-runs", "2")
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("summary: correct %t, %d of %d failed", line.Correct, line.Failed, line.Attempted)
	}
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.workloadNames() {
		wr := res.Workloads[w]
		if wr == nil || len(wr.Runs) != 2 {
			t.Fatalf("%s: want 2 runs in results.json", w)
		}
		for _, m := range sp.endToEnd() {
			if !m.appliesTo(w) {
				continue
			}
			if _, ok := wr.Runs[0].Metrics[m.Name]; !ok {
				t.Errorf("%s: %s missing from results", w, m.Name)
			}
		}
		if f := wr.Runs[0].Metrics["fail_frac"]; f != 0 {
			t.Errorf("%s: fail_frac %v", w, f)
		}
		if wr.Runs[0].Fingerprint != wr.Runs[1].Fingerprint {
			t.Errorf("%s: two runs of one seed generated different inputs", w)
		}
		for _, m := range sp.EndToEnd {
			got, ok := line.Metrics[w+"."+m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("summary %s.%s = %+v, want a positive value in %s", w, m.Name, got, m.Unit)
			}
		}
	}
	for _, m := range sp.endToEnd() {
		if !printed(report, m) {
			t.Errorf("report does not print %s with its unit %s", m.Name, m.Unit)
		}
	}
	for _, want := range []string{"GOMAXPROCS", "inputs sha256", "latency samples"} {
		if !strings.Contains(report, want) {
			t.Errorf("report does not mention %q", want)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	report, line, res := runBench(t, "-trace")
	if !line.Correct || line.Failed != 0 {
		t.Errorf("summary: correct %t, %d failed", line.Correct, line.Failed)
	}
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, w := range sp.workloadNames() {
		tr := res.Workloads[w].Trace
		if tr == nil {
			t.Fatalf("%s: no traced run", w)
		}
		if tr.LayerSelfNs <= 0 || tr.LayerSelfNs > tr.RequestSpanNs {
			t.Errorf("%s: layer self time %d ns against %d ns of traced requests", w, tr.LayerSelfNs, tr.RequestSpanNs)
		}
		for name, v := range tr.Layers {
			reported[name] = true
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v", w, name, v)
			}
		}
		for _, m := range sp.PerLayer {
			if _, ok := line.Metrics[w+"."+m.Name]; !ok {
				t.Errorf("summary lacks %s.%s", w, m.Name)
			}
		}
		if !strings.Contains(report, "tracing overhead") {
			t.Errorf("report does not print the tracing overhead")
		}
	}
	for _, m := range sp.PerLayer {
		if !reported[m.Name] {
			t.Errorf("%s lists %s, which no workload reports", specPath, m.Name)
		}
		if !printed(report, m) {
			t.Errorf("report does not print %s with its unit %s", m.Name, m.Unit)
		}
	}
	// Each workload's layers show up where they are entered, and the
	// bypass workload leaves the engine's cells alone.
	layers := func(w string) map[string]float64 { return res.Workloads[w].Trace.Layers }
	for w, name := range map[string]string{
		"serve":  "image.bytes",
		"edit":   "engine.carry.carried",
		"devirt": "devirt.resolve_batch.ms",
		"lint":   "lint.rule.ambiguous-member.ms",
	} {
		if layers(w)[name] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w, name, layers(w)[name])
		}
	}
	if f := layers("lint")["engine.lookup.fills"]; f != 0 {
		t.Errorf("lint filled %v snapshot cells", f)
	}
}

func TestCompare(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	run := func(opsPerS float64) *result {
		return &result{Metrics: map[string]float64{
			"setup_s": 1, "ops_per_s": opsPerS, "req_p50_ms": 2, "req_p90_ms": 3,
			"live_heap_mb": 10, "fail_frac": 0,
		}, LintDigests: map[string]string{"f.cpp": "x"}}
	}
	file := func(fp string, ops ...float64) *resultsFile {
		wr := &workloadRuns{Fingerprint: fp}
		for _, o := range ops {
			wr.Runs = append(wr.Runs, run(o))
		}
		return &resultsFile{GOMAXPROCS: 2, Seconds: 10, Workloads: map[string]*workloadRuns{"edit": wr}}
	}
	verdicts := func(a, b *resultsFile) map[string]string {
		rows, _, err := compareResults(a, b, sp)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, r := range rows {
			out[r.Metric] = r.Verdict
		}
		return out
	}

	base := file("in", 100, 101, 99)
	for m, v := range verdicts(base, base) {
		if v != verdictWithin {
			t.Errorf("same runs: %s is %q", m, v)
		}
	}
	if v := verdicts(base, file("in", 50, 51, 49))["ops_per_s"]; v != verdictWorse {
		t.Errorf("halved throughput: %q", v)
	}
	if v := verdicts(base, file("in", 200, 201, 199))["ops_per_s"]; v != verdictBetter {
		t.Errorf("doubled throughput: %q", v)
	}
	if v := verdicts(base, file("in", 60, 100, 140))["ops_per_s"]; v != verdictUnresolved {
		t.Errorf("wide spread: %q", v)
	}
	if _, _, err := compareResults(base, file("other", 100), sp); err == nil {
		t.Error("compared runs with different input fingerprints")
	}
	other := file("in", 100)
	other.GOMAXPROCS = 1
	if _, _, err := compareResults(base, other, sp); err == nil {
		t.Error("compared runs with different GOMAXPROCS")
	}
	changed := file("in", 100)
	changed.Workloads["edit"].Runs[0].LintDigests["f.cpp"] = "y"
	if _, digests, _ := compareResults(base, changed, sp); len(digests) != 1 {
		t.Errorf("changed lint digest not flagged: %q", digests)
	}
}

// TestEditRoundSurvivesInvalidOps replays edits naming classes the
// workspace lacks: the round must report the error, still republish and
// requery, and answer like a cold snapshot.
func TestEditRoundSurvivesInvalidOps(t *testing.T) {
	sz := smokeSizes()
	g := hiergen.Giant(giantConfig(sz.classes))
	e, err := editSetup(nil, g, hiergen.CallSites(g, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	background := hiergen.CallSites(g, editRequery/2, 2)
	valid := hiergen.EditScript(g, 1, 3)
	ops := append([]hiergen.EditOp{
		{NewClass: "Fresh", BaseNames: []string{"NoSuchBase"}},
		{Class: "NoSuchClass", Member: g.MemberName(0)},
	}, valid...)
	answers := make([]core.Result, editRequery)
	out := e.round(nil, ops, background, answers, nil)
	if out.err == nil || !strings.Contains(out.err.Error(), "NoSuchBase") {
		t.Errorf("round error = %v, want the failed class add", out.err)
	}
	if out.res == nil || len(out.queries) != editRequery {
		t.Fatalf("round did not republish and requery: res %v, %d queries", out.res, len(out.queries))
	}
	if !matchesCold(e.snap.Graph(), out.queries, answers) {
		t.Error("requery after failed edits disagrees with a cold snapshot")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
	if p := percentile(xs, 0.9); p != 9 {
		t.Errorf("p90 = %v, want 9", p)
	}
}

func TestJoinBoolValues(t *testing.T) {
	o, rest, err := parseFlags([]string{"--workload", "lint", "--trace", "0", "--seed", "3", "--seconds", "10"}, os.Stderr)
	if err != nil || len(rest) != 0 || o.trace || o.seed != 3 || o.workload != "lint" {
		t.Errorf("got %+v, rest %q, err %v", o, rest, err)
	}
	o, _, err = parseFlags([]string{"-trace", "1"}, os.Stderr)
	if err != nil || !o.trace {
		t.Errorf("-trace 1: got %+v, err %v", o, err)
	}
	o, rest, err = parseFlags([]string{"-compare", "a.json", "b.json"}, os.Stderr)
	if err != nil || !o.compare || len(rest) != 2 {
		t.Errorf("-compare a b: got %+v, rest %q, err %v", o, rest, err)
	}
}

func TestLayerSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "b", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 40, End: 70}, // overlaps a
		{ID: 5, Name: "setup", Start: 200, End: 300},
	}
	self, requests := layerSelf(spans, "req")
	// a: 40-10 = 30, b: 10, c: 30 - 0 = 30 (its overlap is c's own time)
	if self != 70 || requests != 100 {
		t.Errorf("layerSelf = %d, %d; want 70, 100", self, requests)
	}
	s := summarize(spans)
	if s["req"].Self != 100-60 || s["a"].Self != 30 {
		t.Errorf("self times: req %d, a %d", s["req"].Self, s["a"].Self)
	}
}
