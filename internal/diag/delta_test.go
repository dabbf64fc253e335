package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cpplookup/internal/cpp/token"
)

func mkDiag(rule, class, member, msg string) Diagnostic {
	return Diagnostic{Severity: Warning, Rule: rule, Class: class, Member: member, Message: msg}
}

func TestFingerprintStability(t *testing.T) {
	d := mkDiag("ambiguous-member", "D", "f", "member f is ambiguous in D")
	d.Witness = &Witness{Paths: []string{"A -> B -> D"}}
	fp := Fingerprint(d)

	// Positions do not participate: moving the declaration around the
	// file keeps the fingerprint (a baseline survives reformatting).
	moved := d
	moved.Pos = token.Pos{Line: 42, Col: 7}
	moved.File = d.File
	if Fingerprint(moved) != fp {
		t.Error("fingerprint changed with position")
	}

	// Everything identifying does participate.
	for name, mut := range map[string]func(*Diagnostic){
		"rule":    func(d *Diagnostic) { d.Rule = "dead-member" },
		"file":    func(d *Diagnostic) { d.File = "other.cpp" },
		"class":   func(d *Diagnostic) { d.Class = "E" },
		"member":  func(d *Diagnostic) { d.Member = "g" },
		"message": func(d *Diagnostic) { d.Message = "other" },
		"witness": func(d *Diagnostic) { d.Witness = &Witness{Paths: []string{"A -> C -> D"}} },
	} {
		other := d
		mut(&other)
		if Fingerprint(other) == fp {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}

	// Field boundaries are delimited: shifting a suffix between
	// adjacent fields must not collide.
	a := mkDiag("r", "AB", "C", "m")
	b := mkDiag("r", "A", "BC", "m")
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("adjacent fields collide")
	}
	if FingerprintString(d) != FingerprintString(moved) || !strings.HasPrefix(FingerprintString(d), "chg-") {
		t.Errorf("FingerprintString = %q", FingerprintString(d))
	}
}

// The fingerprint is stored in baselines and the lintdelta goldens, so
// its value is pinned; these literals were computed by the hash/fnv
// implementation it replaced. Computing one allocates nothing.
func TestFingerprintPinnedAndAllocationFree(t *testing.T) {
	d := Diagnostic{
		Rule: "ambiguous-member", File: "a.cpp", Class: "Widget", Member: "draw",
		Message: "lookup of draw in Widget is ambiguous",
		Witness: &Witness{
			Paths:   []string{"A->B->Widget", "A->C->Widget"},
			Classes: []string{"B", "C"},
			Paper:   "blue",
			Visited: 12,
		},
	}
	if got := FingerprintString(d); got != "chg-84c160a2848f80de" {
		t.Errorf("FingerprintString = %s, want chg-84c160a2848f80de", got)
	}
	if n := testing.AllocsPerRun(100, func() { Fingerprint(d) }); n != 0 {
		t.Errorf("Fingerprint allocated %v times per call, want 0", n)
	}
	w := *d.Witness
	w.Visited, w.Gxx, w.Mro, w.Abstractions = 123456, "red", "x", []string{"(A, Ω)"}
	d.Witness = &w
	if got := FingerprintString(d); got != "chg-b3ec416da139fe37" {
		t.Errorf("FingerprintString = %s, want chg-b3ec416da139fe37", got)
	}
	if n := testing.AllocsPerRun(100, func() { Fingerprint(d) }); n != 0 {
		t.Errorf("Fingerprint with a six-digit Visited allocated %v times per call, want 0", n)
	}
}

func TestDiff(t *testing.T) {
	a := mkDiag("ambiguous-member", "D", "f", "ambiguous f")
	b := mkDiag("dead-member", "B", "g", "dead g")
	c := mkDiag("dominance-shadowing", "C", "h", "shadowed h")

	delta := Diff([]Diagnostic{a, b}, []Diagnostic{b, c})
	if len(delta.Added) != 1 || delta.Added[0].Rule != c.Rule {
		t.Fatalf("Added = %v", delta.Added)
	}
	if len(delta.Fixed) != 1 || delta.Fixed[0].Rule != a.Rule {
		t.Fatalf("Fixed = %v", delta.Fixed)
	}
	if len(delta.Persisting) != 1 || delta.Persisting[0].Rule != b.Rule {
		t.Fatalf("Persisting = %v", delta.Persisting)
	}
	if delta.Empty() {
		t.Error("changed delta reports Empty")
	}
	if !Diff([]Diagnostic{a}, []Diagnostic{a}).Empty() {
		t.Error("identical runs should produce an empty delta")
	}

	// Multiset semantics: a duplicated finding removed once is one fix.
	dup := Diff([]Diagnostic{a, a}, []Diagnostic{a})
	if len(dup.Fixed) != 1 || len(dup.Persisting) != 1 || len(dup.Added) != 0 {
		t.Fatalf("dup delta = %+v", dup)
	}
}

// Diff matches findings as a multiset: against a counting reference,
// on inputs with repeated fingerprints, the same inputs land in each
// slice, in input order.
func TestDiffMatchesMultisetReference(t *testing.T) {
	reference := func(before, after []Diagnostic) Delta {
		old := map[uint64]int{}
		for _, d := range before {
			old[Fingerprint(d)]++
		}
		var delta Delta
		for _, d := range after {
			if fp := Fingerprint(d); old[fp] > 0 {
				old[fp]--
				delta.Persisting = append(delta.Persisting, d)
			} else {
				delta.Added = append(delta.Added, d)
			}
		}
		for _, d := range before {
			if fp := Fingerprint(d); old[fp] > 0 {
				old[fp]--
				delta.Fixed = append(delta.Fixed, d)
			}
		}
		return delta
	}
	rng := rand.New(rand.NewSource(1))
	gen := func() []Diagnostic {
		ds := make([]Diagnostic, rng.Intn(12))
		for i := range ds {
			// Line sets duplicates apart: it is not fingerprinted.
			ds[i] = mkDiag("r", fmt.Sprint(rng.Intn(4)), "m", "msg")
			ds[i].Pos.Line = i
		}
		return ds
	}
	same := func(x, y []Diagnostic) bool {
		return slices.EqualFunc(x, y, func(a, b Diagnostic) bool { return a.Class == b.Class && a.Pos == b.Pos })
	}
	for i := 0; i < 1000; i++ {
		before, after := gen(), gen()
		got, want := Diff(before, after), reference(before, after)
		if !same(got.Added, want.Added) || !same(got.Fixed, want.Fixed) || !same(got.Persisting, want.Persisting) {
			t.Fatalf("Diff(%v, %v) = %+v, want %+v", before, after, got, want)
		}
	}
}

// Diff allocates as often at 10,000 findings as at 1,000: its scratch
// and each output slice are sized before they are filled, never grown
// by append.
func TestDiffAllocationsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		before, after := make([]Diagnostic, n), make([]Diagnostic, n)
		for i := range before {
			before[i] = mkDiag("dead-member", fmt.Sprintf("C%d", i), "m", "dead m")
			after[i] = mkDiag("dead-member", fmt.Sprintf("C%d", i+n/4), "m", "dead m")
		}
		return testing.AllocsPerRun(5, func() { Diff(before, after) })
	}
	if small, large := allocs(1000), allocs(10000); small != large {
		t.Errorf("Diff allocated %v times at 1,000 findings and %v at 10,000, want the same", small, large)
	}
}

func TestWriteDeltaText(t *testing.T) {
	a := mkDiag("ambiguous-member", "D", "f", "ambiguous f")
	a.Witness = &Witness{Paths: []string{"A -> B -> D"}}
	b := mkDiag("dead-member", "B", "g", "dead g")

	var buf bytes.Buffer
	if err := WriteDeltaText(&buf, Delta{Added: []Diagnostic{a}, Fixed: []Diagnostic{b}, Persisting: []Diagnostic{b}}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"added (1):", "ambiguous f", "path: A -> B -> D", "fixed (1):", "dead g", "persisting: 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("delta text missing %q:\n%s", want, got)
		}
	}

	buf.Reset()
	if err := WriteDeltaText(&buf, Delta{Persisting: []Diagnostic{b}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "no changes (1 persisting)\n" {
		t.Errorf("empty delta text = %q", got)
	}
}

func TestWriteDeltaJSONAndSARIF(t *testing.T) {
	a := mkDiag("ambiguous-member", "D", "f", "ambiguous f")
	b := mkDiag("dead-member", "B", "g", "dead g")
	delta := Delta{Added: []Diagnostic{a}, Fixed: []Diagnostic{b}, Persisting: []Diagnostic{b}}

	var buf bytes.Buffer
	if err := WriteDeltaJSON(&buf, delta); err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Added, Fixed, Persisting []struct {
			Fingerprint string `json:"fingerprint"`
			Rule        string `json:"rule"`
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Added) != 1 || dec.Added[0].Fingerprint != FingerprintString(a) || dec.Added[0].Rule != a.Rule {
		t.Errorf("json added = %+v", dec.Added)
	}
	if len(dec.Fixed) != 1 || len(dec.Persisting) != 1 {
		t.Errorf("json fixed/persisting = %+v / %+v", dec.Fixed, dec.Persisting)
	}

	buf.Reset()
	if err := WriteDeltaSARIF(&buf, delta, Tool{Name: "chglint"}); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []struct {
				RuleID              string            `json:"ruleId"`
				BaselineState       string            `json:"baselineState"`
				PartialFingerprints map[string]string `json:"partialFingerprints"`
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	rs := log.Runs[0].Results
	if len(rs) != 3 {
		t.Fatalf("sarif results = %+v", rs)
	}
	wantStates := []string{"unchanged", "new", "absent"}
	wantRules := []string{b.Rule, a.Rule, b.Rule}
	for i, r := range rs {
		if r.BaselineState != wantStates[i] || r.RuleID != wantRules[i] {
			t.Errorf("result %d = %s/%s, want %s/%s", i, r.RuleID, r.BaselineState, wantRules[i], wantStates[i])
		}
		if r.PartialFingerprints["chgFinding/v1"] == "" {
			t.Errorf("result %d missing partial fingerprint", i)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	a := mkDiag("ambiguous-member", "D", "f", "ambiguous f")
	b := mkDiag("dead-member", "B", "g", "dead g")
	c := mkDiag("dominance-shadowing", "C", "h", "shadowed h")

	var buf bytes.Buffer
	if err := WriteBaseline(&buf, []Diagnostic{a, b, a}); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "# chglint baseline v1\n") {
		t.Fatalf("baseline header missing:\n%s", text)
	}
	// Deduped: one line per distinct fingerprint plus the header.
	if got := strings.Count(text, "\n"); got != 3 {
		t.Fatalf("baseline has %d lines:\n%s", got, text)
	}
	if !strings.Contains(text, "ambiguous-member D::f") {
		t.Errorf("baseline missing annotation:\n%s", text)
	}

	base, err := ReadBaseline(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fresh, suppressed := base.Apply([]Diagnostic{a, b, c})
	if len(suppressed) != 2 || len(fresh) != 1 || fresh[0].Rule != c.Rule {
		t.Fatalf("Apply: fresh=%v suppressed=%v", fresh, suppressed)
	}

	// Written baselines are byte-stable across input order.
	var buf2 bytes.Buffer
	if err := WriteBaseline(&buf2, []Diagnostic{b, a}); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Error("baseline bytes depend on input order")
	}

	// Malformed files fail loudly.
	if _, err := ReadBaseline(strings.NewReader("chg-0000000000000000 x\n")); err == nil {
		t.Error("headerless file accepted")
	}
	if _, err := ReadBaseline(strings.NewReader("# chglint baseline v1\nnot-a-fingerprint\n")); err == nil {
		t.Error("malformed fingerprint accepted")
	}
	if _, err := ReadBaseline(strings.NewReader("")); err == nil {
		t.Error("empty file accepted")
	}
}
