package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/hiergen"
)

// Qualitative experiments must run and contain their headline facts.
func TestQualitativeExperiments(t *testing.T) {
	for _, tc := range []struct {
		id    string
		wants []string
	}{
		{"E1", []string{"A×2", "lookup(E, m) = ⊥"}},
		{"E2", []string{"A×1", "red (D,"}},
		{"E3", []string{"{ABDFH, ABDGH}", "{GH}", "lookup(H, bar) = ⊥"}},
		{"E4", []string{"most-dominant GH", "killed {ABDFH, ACDFH}"}},
		{"E5", []string{"=> red (G, Ω)", "=> blue {Ω}"}},
		{"E6", []string{"reported ambiguous", "resolved (C::m)"}},
	} {
		e, ok := Find(tc.id)
		if !ok {
			t.Fatalf("experiment %s missing", tc.id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		out := buf.String()
		for _, want := range tc.wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s output missing %q:\n%s", tc.id, want, out)
			}
		}
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

func TestTimePerOp(t *testing.T) {
	calls := 0
	per := timePerOp(time.Millisecond, func() {
		calls++
		time.Sleep(50 * time.Microsecond)
	})
	if calls < 2 {
		t.Errorf("calls = %d, want several", calls)
	}
	if per <= 0 || per > 10*time.Millisecond {
		t.Errorf("per = %v", per)
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
