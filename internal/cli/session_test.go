package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A baseline adopted from one run suppresses those findings in the
// next, and only findings outside the baseline count at the threshold.
func TestLintBaselineRoundTrip(t *testing.T) {
	input := []string{"testdata/figure9.cpp"}
	base := filepath.Join(t.TempDir(), "base.txt")

	// Adopt a baseline covering only the dead-member findings.
	_, n := runLint(t, input, LintConfig{
		Rules:         []string{"dead-member"},
		FailOn:        "info",
		WriteBaseline: base,
	})
	if n != 0 {
		t.Errorf("write-baseline run returned %d, want 0", n)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# chglint baseline v1\n") || !strings.Contains(string(data), "dead-member") {
		t.Fatalf("baseline file malformed:\n%s", data)
	}

	// Under the baseline, dead-member findings vanish from the output
	// and the count; the rest of the rules still fire and count.
	out, n := runLint(t, input, LintConfig{FailOn: "info", Baseline: base})
	if strings.Contains(out, "dead-member") {
		t.Errorf("baselined finding still printed:\n%s", out)
	}
	if !strings.Contains(out, "suppressed by baseline") {
		t.Errorf("suppression note missing:\n%s", out)
	}
	if n == 0 {
		t.Error("fresh findings outside the baseline should still count")
	}

	// A baseline of the full run suppresses everything: CI goes green.
	_, _ = runLint(t, input, LintConfig{FailOn: "info", WriteBaseline: base})
	out, n = runLint(t, input, LintConfig{FailOn: "info", Baseline: base})
	if n != 0 {
		t.Errorf("fully-baselined run counted %d findings:\n%s", n, out)
	}

	// Unreadable and malformed baselines fail loudly.
	if _, err := RunLint(&bytes.Buffer{}, input, LintConfig{Baseline: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing baseline file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("not a baseline\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLint(&bytes.Buffer{}, input, LintConfig{Baseline: bad}); err == nil {
		t.Error("malformed baseline file accepted")
	}
}

// Unknown rule IDs error out through the CLI path, listing the valid
// IDs so the user can fix the flag without consulting -list-rules.
func TestLintUnknownRuleListsIDs(t *testing.T) {
	_, err := RunLint(&bytes.Buffer{}, []string{"testdata/figure9.cpp"}, LintConfig{Rules: []string{"no-such-rule"}})
	if err == nil {
		t.Fatal("unknown rule accepted")
	}
	for _, want := range []string{"no-such-rule", "ambiguous-member", "gxx-divergence"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func runSession(t *testing.T, cfg SessionConfig) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunLintSession(&buf, cfg); err != nil {
		t.Fatalf("RunLintSession(%+v): %v", cfg, err)
	}
	return buf.String()
}

func TestLintSessionReplay(t *testing.T) {
	cfg := SessionConfig{Shape: "realistic-6x4", Edits: 8, Seed: 7}

	out := runSession(t, cfg)
	for _, want := range []string{
		"session realistic-6x4: 8 edits, seed 7",
		"edit 1:",
		"edit 8:",
		"\nfinal: ",
		"full relints",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session text missing %q:\n%s", want, out)
		}
	}
	// The replay is deterministic: same shape, seed, and script length
	// reproduce the transcript byte for byte, and the transcript is
	// pinned, so every workspace freeze the session reads is too.
	if out2 := runSession(t, cfg); out2 != out {
		t.Error("session replay is not deterministic")
	}
	checkGolden(t, filepath.Join("testdata", "golden", "session-realistic-6x4.txt"), out)

	jcfg := cfg
	jcfg.Format = "json"
	var dec struct {
		Shape string `json:"shape"`
		Seed  int64  `json:"seed"`
		Edits []struct {
			Edit  int             `json:"edit"`
			Op    string          `json:"op"`
			Delta json.RawMessage `json:"delta"`
		} `json:"edits"`
	}
	if err := json.Unmarshal([]byte(runSession(t, jcfg)), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Shape != cfg.Shape || dec.Seed != cfg.Seed || len(dec.Edits) != cfg.Edits {
		t.Errorf("session json header = %q/%d with %d edits", dec.Shape, dec.Seed, len(dec.Edits))
	}
	for i, e := range dec.Edits {
		if e.Edit != i+1 || e.Op == "" || len(e.Delta) == 0 {
			t.Errorf("session json edit %d = %+v", i, e)
		}
	}

	scfg := cfg
	scfg.Format = "sarif"
	var log struct {
		Runs []struct {
			Results []struct {
				BaselineState string `json:"baselineState"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(runSession(t, scfg)), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("session sarif has no results")
	}
	for _, r := range log.Runs[0].Results {
		switch r.BaselineState {
		case "new", "absent", "unchanged":
		default:
			t.Errorf("bad baselineState %q", r.BaselineState)
		}
	}
}

func TestLintSessionBadInputs(t *testing.T) {
	err := RunLintSession(&bytes.Buffer{}, SessionConfig{Shape: "no-such-shape"})
	if err == nil || !strings.Contains(err.Error(), "realistic-6x4") {
		t.Errorf("unknown shape error %v should list valid shapes", err)
	}
	err = RunLintSession(&bytes.Buffer{}, SessionConfig{Shape: "realistic-6x4", Edits: 1, Format: "yaml"})
	if err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Errorf("unknown format error = %v", err)
	}
	err = RunLintSession(&bytes.Buffer{}, SessionConfig{Shape: "realistic-6x4", Edits: 1, Rules: []string{"bogus"}})
	if err == nil {
		t.Error("unknown rule accepted in session mode")
	}
}
