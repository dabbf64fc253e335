package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cpplookup/internal/hiergen"
)

// TestRunAllProducesEverySection runs every experiment once, under its
// section header, and checks its headline facts. A family experiment
// prints its smoke rows, one step per strategy, so its measure and
// table code run without E18–E20's full grids.
func TestRunAllProducesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full run skipped in -short mode")
	}
	families := map[string]Family{}
	for _, f := range Families() {
		families[f.Experiment] = f
	}
	for _, e := range All() {
		if f, ok := families[e.ID]; ok {
			rows := smokeRows(t, f)
			e.Run = func(w io.Writer) error { f.Print(w, rows); return nil }
		}
		var buf bytes.Buffer
		if err := runOne(&buf, e); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "=== "+e.ID+": ") {
			t.Errorf("section %s starts %.40q", e.ID, out)
		}
		checkWants(t, e.ID, out)
	}
}

func TestGenSourceDeterministic(t *testing.T) {
	g := hiergen.Realistic(3, 2)
	a := GenSource(g, 50, 3)
	b := GenSource(g, 50, 3)
	if a != b {
		t.Error("GenSource should be deterministic for a fixed seed")
	}
	c := GenSource(g, 50, 4)
	if a == c {
		t.Error("different seeds should differ")
	}
}
