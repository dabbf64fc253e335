package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/hiergen"
)

// experimentWants are the headline facts each experiment's output must
// contain.
var experimentWants = map[string][]string{
	"E1":  {"A×2", "lookup(E, m) = ⊥"},
	"E2":  {"A×1", "red (D,"},
	"E3":  {"{ABDFH, ABDGH}", "{GH}", "lookup(H, bar) = ⊥"},
	"E4":  {"most-dominant GH", "killed {ABDFH, ACDFH}"},
	"E5":  {"=> red (G, Ω)", "=> blue {Ω}"},
	"E6":  {"reported ambiguous", "resolved (C::m)"},
	"E7":  {"t/size", "quadratic", "t/entry"},
	"E8":  {"subobjects", "DNF (graph too large)", "1048573"},
	"E9":  {"lookup strategy", "memoized lazy (this paper)", "share of front end"},
	"E10": {"agreement 4147/4147", "silently \"resolves\" 673"},
	"E11": {"[C@0].m = 10", "this-2"},
	"E12": {"mutex-guarded analyzer", "engine snapshot"},
	"E13": {"pointer cells", "warm allocs/op"},
	"E14": {"vs naive", "pruned away", "sparse-400c-2000m"},
	"E15": {"warm-carry", "survival", "sparse-400c-2000m"},
	"E16": {"c3≠dom", "gxx≠dom", "wide-mi-64"},
	"E17": {"cone-relint", "1.0m 1.0r 0.0s"},
	"E18": {"image KiB", "vs gob", "sparse-400c-2000m"},
	"E19": {"whole-table build", "streamed-build", "bulk-carry"},
	"E20": {"monomorphic", "parallel-batched", "(probe)"},
	"A1":  {"virtual diamond chain k=12", "no-kill propagation exceeded"},
	"A2":  {"(L, V) abstractions only", "relative"},
	"A3":  {"eager (build + query)", "lazy (memoized)"},
	"A4":  {"entries invalidated", "incremental workspace"},
}

func checkWants(t *testing.T, id, out string) {
	t.Helper()
	for _, want := range experimentWants[id] {
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", id, want, out)
		}
	}
}

// Qualitative experiments must run and contain their headline facts.
func TestQualitativeExperiments(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkWants(t, id, buf.String())
	}
}

func TestFindAndAll(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Errorf("All = %d experiments", len(all))
	}
	if _, ok := Find("e6"); !ok {
		t.Error("Find should be case-insensitive")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find(E99) should fail")
	}
}

func TestTime(t *testing.T) {
	// The budget spans many 50µs sleeps even where the host's timer
	// stretches one sleep past a millisecond.
	calls := 0
	tm := Time(1, 20*time.Millisecond, func() int {
		calls++
		time.Sleep(50 * time.Microsecond)
		return 2
	})
	if calls < 2 || tm.Steps != calls || tm.Iterations != 2*calls {
		t.Errorf("calls = %d, timing = %+v: want several steps of 2 ops each", calls, tm)
	}
	if tm.Seconds < 0.02 || tm.PerOp() < 25*time.Microsecond || tm.PerOp() > 10*time.Millisecond {
		t.Errorf("timing = %+v: want ≥ 20ms in total, ≥ 25µs per op", tm)
	}

	// A zero budget takes exactly the requested steps.
	n := 0
	if tm := Time(3, 0, func() int { n++; return 1 }); n != 3 || tm.Steps != 3 || tm.Iterations != 3 {
		t.Errorf("Time(3, 0) ran %d steps: %+v", n, tm)
	}

	// Allocations are counted per op.
	var sink [][]byte
	tm = Time(10, 0, func() int { sink = append(sink, make([]byte, 1024)); return 1 })
	if tm.AllocsPerOp < 1 || tm.BytesPerOp < 1024 || len(sink) != 10 {
		t.Errorf("timing = %+v: want ≥ 1 alloc and ≥ 1 KiB per op", tm)
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("name", "value")
	tb.add("x", 1)
	tb.add("longer-name", time.Microsecond*1500)
	var buf bytes.Buffer
	tb.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "longer-name") ||
		!strings.Contains(out, "1.50ms") {
		t.Errorf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table lines = %d", len(lines))
	}
}

func TestFormatDuration(t *testing.T) {
	for d, want := range map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.50µs",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.00s",
	} {
		if got := formatDuration(d); got != want {
			t.Errorf("formatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

// GenSource must produce a translation unit the frontend accepts
// without diagnostics on an unambiguous hierarchy.
func TestGenSourceRoundTrips(t *testing.T) {
	g := hiergen.Realistic(4, 2)
	src := GenSource(g, 100, 5)
	u, err := sema.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Diags) != 0 {
		t.Fatalf("diagnostics on generated source: %v", u.Diags[:min(3, len(u.Diags))])
	}
	if len(u.Resolutions) != 100 {
		t.Errorf("resolutions = %d, want 100", len(u.Resolutions))
	}
	if u.Graph.NumClasses() != g.NumClasses() {
		t.Errorf("round-tripped classes = %d, want %d", u.Graph.NumClasses(), g.NumClasses())
	}
}
