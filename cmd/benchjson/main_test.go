package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/harness"
	"cpplookup/internal/hiergen"
)

// family is a one-config, one-strategy family whose Setup returns
// setupErr.
func family(name string, setupErr error) harness.Family {
	return harness.Family{
		Name:      name,
		Benchmark: "Benchmark" + name,
		Configs: []harness.Config{{
			Name: "figure1", Shape: "dense", Make: hiergen.Figure1,
			Strategies: []harness.Strategy{{Name: "noop", Setup: func(*chg.Graph, string) (*harness.Session, error) {
				return &harness.Session{Step: func() int { return 1 }}, setupErr
			}}},
		}},
	}
}

func TestRunWritesEveryRecord(t *testing.T) {
	dir := t.TempDir()
	if err := run([]harness.Family{family("good", nil)}, dir, 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_good.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec harness.Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Benchmark != "Benchmarkgood" || len(rec.Configs) != 1 || rec.Configs[0].Strategies["noop"].Iterations != 1 {
		t.Errorf("record = %s", data)
	}
}

// A family that fails to set up leaves no record behind, not even the
// records of families measured before it.
func TestRunWritesNothingOnFailure(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	err := run([]harness.Family{family("good", nil), family("bad", boom)}, dir, 0, io.Discard)
	if !errors.Is(err, boom) {
		t.Fatalf("run = %v, want the setup error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed run wrote %d files", len(entries))
	}
}

func TestSelectFamilies(t *testing.T) {
	fams, err := selectFamilies("mro, lint")
	if err != nil || len(fams) != 2 || fams[0].Name != "mro" || fams[1].Name != "lint" {
		t.Errorf("selectFamilies = %v, %v", fams, err)
	}
	if _, err := selectFamilies("mro,nope"); err == nil {
		t.Error("an unknown family should be an error")
	}
}
