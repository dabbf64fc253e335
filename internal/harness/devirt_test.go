package harness

import "testing"

// TestMeasureDevirtSmall sanity-checks the devirt measurement plumbing
// on a tiny configuration: all three strategies present, counts that
// cover the stream, and a batched result for every site.
func TestMeasureDevirtSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timed measurement")
	}
	cfg := DevirtConfig{Name: "tiny", Classes: 1500, MemberNames: 96,
		Sites: 30_000, SingleProbe: 300, Seed: 11}
	ms, stats, err := MeasureDevirt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d strategies, want 3", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Strategy] = true
		if m.NsPerSite <= 0 || m.SitesPerSec <= 0 {
			t.Fatalf("%s: degenerate timing %+v", m.Strategy, m)
		}
	}
	for _, want := range []string{"single-call", "batched", "parallel-batched"} {
		if !names[want] {
			t.Fatalf("missing strategy %s", want)
		}
	}
	if stats.Sites != cfg.Sites {
		t.Fatalf("stats cover %d of %d sites", stats.Sites, cfg.Sites)
	}
	if got := stats.Monomorphic + stats.Polymorphic + stats.Unresolved; got != stats.Sites {
		t.Fatalf("site classes sum to %d, want %d", got, stats.Sites)
	}
	if stats.UniqueSites <= 0 || stats.UniqueSites > stats.Sites {
		t.Fatalf("implausible unique-site count %d", stats.UniqueSites)
	}
	if stats.Monomorphic == 0 {
		t.Fatal("no monomorphic sites on a Giant shape")
	}
}
