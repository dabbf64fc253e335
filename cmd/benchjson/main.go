// Command benchjson measures the benchmark families of
// internal/harness (the same configs and strategies experiments
// E14–E20 print) and writes each as BENCH_<family>.json in the working
// directory, so the performance trajectory is machine-readable across
// changes:
//
//	go run ./cmd/benchjson                        # every family but the slow ones
//	go run ./cmd/benchjson -family scale,devirt   # the slow ones: minutes
//
// Each strategy's Step is timed for about a second by harness.Time: ns,
// allocations and bytes per op (a build, a round, a call site, an
// edit), plus the family's per-config extras (speedups, work profiles,
// divergence counts, census). Nothing is written unless every named
// family measured. `go test -run TestBenchRecordsMatchFamilies .`
// checks the committed records against the registry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cpplookup/internal/harness"
)

func main() {
	var fast []string
	for _, f := range harness.Families() {
		if !f.Slow {
			fast = append(fast, f.Name)
		}
	}
	list := flag.String("family", strings.Join(fast, ","), "comma-separated families to measure")
	flag.Parse()

	fams, err := selectFamilies(*list)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if err := run(fams, ".", time.Second, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// selectFamilies resolves a comma-separated list of family names.
func selectFamilies(list string) ([]harness.Family, error) {
	all := harness.Families()
	var out []harness.Family
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, f := range all {
			if f.Name == strings.TrimSpace(name) {
				out, found = append(out, f), true
			}
		}
		if !found {
			var names []string
			for _, f := range all {
				names = append(names, f.Name)
			}
			return nil, fmt.Errorf("unknown family %q (have %s)", name, strings.Join(names, ", "))
		}
	}
	return out, nil
}

// run measures every family's recorded grid for about budget per
// strategy, then writes each record into dir. A failure writes nothing.
func run(fams []harness.Family, dir string, budget time.Duration, log io.Writer) error {
	records := make([][]byte, len(fams))
	for i, f := range fams {
		rows, err := f.Measure(f.Configs, budget, log)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(harness.Record{Benchmark: f.Benchmark, Unit: f.Unit, Configs: rows}, "", "  ")
		if err != nil {
			return err
		}
		records[i] = append(data, '\n')
	}
	for i, f := range fams {
		if err := os.WriteFile(filepath.Join(dir, f.File()), records[i], 0o644); err != nil {
			return err
		}
		fmt.Fprintln(log, "wrote", f.File())
	}
	return nil
}
