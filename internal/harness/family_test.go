package harness

import "testing"

// smoked caches each family's smoke rows, so TestFamilySmoke and
// TestRunAllProducesEverySection measure every family once per test
// binary.
var smoked = map[string][]*Row{}

// smokeRows measures f's smoke grid, one step per strategy.
func smokeRows(t *testing.T, f Family) []*Row {
	t.Helper()
	if rows, ok := smoked[f.Name]; ok {
		return rows
	}
	rows, err := f.Measure(f.Smoke, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	smoked[f.Name] = rows
	return rows
}

// TestFamilySmoke runs every family's smoke grid, one subtest per
// family: every strategy must report a timing, and the scale and
// devirt rows must satisfy their structural invariants.
func TestFamilySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured families are skipped in -short mode")
	}
	for _, f := range Families() {
		t.Run(f.Name, func(t *testing.T) {
			rows := smokeRows(t, f)
			if len(rows) != len(f.Smoke) {
				t.Fatalf("%d rows for %d smoke configs", len(rows), len(f.Smoke))
			}
			for i, cfg := range f.Smoke {
				r := rows[i]
				for _, s := range cfg.Strategies {
					if tm := r.Strategies[s.Name]; tm.Steps < 1 || tm.Iterations < 1 || tm.NsPerOp <= 0 {
						t.Errorf("%s/%s reports no timing: %+v", cfg.Name, s.Name, tm)
					}
				}
				switch f.Name {
				case "scale":
					checkScaleSmoke(t, r)
				case "devirt":
					checkDevirtSmoke(t, r)
				}
			}
		})
	}
}

// checkScaleSmoke: the streamed build chunks within its budget, and the
// bulk session republishes once per batch and carries warm cells.
func checkScaleSmoke(t *testing.T, r *Row) {
	st, ok := r.Stream["streamed-build"]
	if !ok || r.Entries == 0 || st.Chunks < 1 {
		t.Errorf("degenerate streamed build (entries %d): %+v", r.Entries, st)
	}
	if st.WorkingSetBytes > st.BudgetBytes {
		t.Errorf("streamed working set %d exceeds budget %d", st.WorkingSetBytes, st.BudgetBytes)
	}
	bulk := r.Strategies["bulk-carry"]
	if edits := bulk.Iterations / max(bulk.Steps, 1); edits != scaleSmokeEdits {
		t.Errorf("bulk session applied %d edits per step, want %d", edits, scaleSmokeEdits)
	}
	if got, want := r.Republishes["bulk-carry"], (scaleSmokeEdits+scaleSmokeBatch-1)/scaleSmokeBatch; got != want {
		t.Errorf("bulk session republished %d times, want %d", got, want)
	}
	if r.CarriedEntries == 0 {
		t.Error("bulk session carried no cells — warm carry did not engage")
	}
}

// checkDevirtSmoke: every drain ran, batching is at least as fast as
// single calls, and the site census covers the stream exactly.
func checkDevirtSmoke(t *testing.T, r *Row) {
	for _, s := range []string{"single-call", "batched", "parallel-batched"} {
		if r.SitesPerSec[s] <= 0 {
			t.Errorf("strategy %s did not run", s)
		}
	}
	if b, s := r.SitesPerSec["batched"], r.SitesPerSec["single-call"]; b < s {
		t.Errorf("batched throughput %.0f sites/sec below single-call %.0f", b, s)
	}
	if batched := r.Strategies["batched"]; r.CallSites == 0 || r.CallSites != batched.Iterations/max(batched.Steps, 1) {
		t.Errorf("census covers %d sites, batched drained %+v", r.CallSites, batched)
	}
	if got := r.MonomorphicSites + r.PolymorphicSites + r.UnresolvedSites; got != r.CallSites {
		t.Errorf("site census sums to %d, want %d", got, r.CallSites)
	}
	if r.UniqueSites <= 0 || r.UniqueSites > r.CallSites {
		t.Errorf("implausible unique-site count %d of %d", r.UniqueSites, r.CallSites)
	}
	if r.MonomorphicSites == 0 {
		t.Error("no monomorphic sites on a Giant Zipf stream")
	}
	// The smoke stream and hierarchy are seeded, so the census is exact.
	got := [4]int{r.UniqueSites, r.MonomorphicSites, r.PolymorphicSites, r.UnresolvedSites}
	if want := [4]int{82273, 27947, 136300, 35753}; got != want {
		t.Errorf("census (unique, monomorphic, polymorphic, unresolved) = %v, want %v", got, want)
	}
}
