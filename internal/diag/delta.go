package diag

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
)

// Fingerprint identifies a finding stably across re-analyses: FNV-1a
// 64 over the rule ID, file, class, member, message, and witness.
// Source positions are deliberately excluded — reformatting a header
// must not churn a baseline — and so is severity, which is a property
// of the rule, not of the instance. Two findings with equal
// fingerprints are "the same finding" for delta and baseline
// purposes.
func Fingerprint(d Diagnostic) uint64 {
	h := fnv.New64a()
	field := func(tag byte, s string) {
		h.Write([]byte{0, tag})
		io.WriteString(h, s)
	}
	field('r', d.Rule)
	field('f', d.File)
	field('c', d.Class)
	field('m', d.Member)
	field('g', d.Message)
	if w := d.Witness; w != nil {
		for _, p := range w.Paths {
			field('p', p)
		}
		for _, c := range w.Classes {
			field('v', c)
		}
		field('P', w.Paper)
		field('G', w.Gxx)
		field('M', w.Mro)
		if w.Visited != 0 {
			field('n', fmt.Sprint(w.Visited))
		}
		for _, a := range w.Abstractions {
			field('a', a)
		}
	}
	return h.Sum64()
}

// FingerprintString is the rendered form used in baselines, SARIF
// partialFingerprints, and the JSON delta: "chg-" + 16 hex digits.
func FingerprintString(d Diagnostic) string {
	return fmt.Sprintf("chg-%016x", Fingerprint(d))
}

// Delta is the difference between two analyses of the same hierarchy:
// findings present only after (Added), only before (Fixed), and in
// both (Persisting). Matching is by Fingerprint, as a multiset; each
// slice preserves the canonical order of the input it came from.
type Delta struct {
	Added      []Diagnostic
	Fixed      []Diagnostic
	Persisting []Diagnostic
}

// Empty reports whether nothing changed: no findings appeared and
// none disappeared.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Fixed) == 0 }

// Diff computes the delta from before to after. Both inputs should be
// in canonical order (diag.Sort); the output slices then are too.
func Diff(before, after []Diagnostic) Delta {
	old := make(map[uint64]int, len(before))
	for _, d := range before {
		old[Fingerprint(d)]++
	}
	var delta Delta
	for _, d := range after {
		fp := Fingerprint(d)
		if old[fp] > 0 {
			old[fp]--
			delta.Persisting = append(delta.Persisting, d)
		} else {
			delta.Added = append(delta.Added, d)
		}
	}
	for _, d := range before {
		fp := Fingerprint(d)
		if old[fp] > 0 {
			old[fp]--
			delta.Fixed = append(delta.Fixed, d)
		}
	}
	return delta
}

// WriteDeltaText renders a delta in compiler style: added findings in
// full (header + witness, as WriteText), fixed findings as header
// lines only (their witnesses describe a hierarchy that no longer
// exists), and persisting findings as a count. A fully unchanged
// delta renders as a single "no changes" line.
func WriteDeltaText(w io.Writer, delta Delta) error {
	if delta.Empty() {
		_, err := fmt.Fprintf(w, "no changes (%d persisting)\n", len(delta.Persisting))
		return err
	}
	if len(delta.Added) > 0 {
		if _, err := fmt.Fprintf(w, "added (%d):\n", len(delta.Added)); err != nil {
			return err
		}
		if err := WriteText(w, delta.Added); err != nil {
			return err
		}
	}
	if len(delta.Fixed) > 0 {
		if _, err := fmt.Fprintf(w, "fixed (%d):\n", len(delta.Fixed)); err != nil {
			return err
		}
		for _, d := range delta.Fixed {
			if _, err := fmt.Fprintln(w, d.Header()); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "persisting: %d\n", len(delta.Persisting))
	return err
}

// jsonDeltaDiag is a jsonDiag carrying its fingerprint, so machine
// consumers of the delta can correlate against baselines without
// re-deriving the hash.
type jsonDeltaDiag struct {
	Fingerprint string `json:"fingerprint"`
	jsonDiag
}

func toJSONDelta(ds []Diagnostic) []jsonDeltaDiag {
	out := make([]jsonDeltaDiag, 0, len(ds))
	for _, d := range ds {
		jd := jsonDiag{
			File:     d.File,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Severity: d.Severity.String(),
			Rule:     d.Rule,
			Class:    d.Class,
			Member:   d.Member,
			Message:  d.Message,
		}
		if d.Witness != nil {
			jd.Witness = (*jsonWitness)(d.Witness)
		}
		out = append(out, jsonDeltaDiag{Fingerprint: FingerprintString(d), jsonDiag: jd})
	}
	return out
}

// WriteDeltaJSON renders a delta as one object with "added", "fixed",
// and "persisting" arrays (always arrays, "[]" when empty), each
// entry a diagnostic in the WriteJSON encoding plus its fingerprint.
func WriteDeltaJSON(w io.Writer, delta Delta) error {
	out := struct {
		Added      []jsonDeltaDiag `json:"added"`
		Fixed      []jsonDeltaDiag `json:"fixed"`
		Persisting []jsonDeltaDiag `json:"persisting"`
	}{toJSONDelta(delta.Added), toJSONDelta(delta.Fixed), toJSONDelta(delta.Persisting)}
	return encodeIndentJSON(w, &out)
}

// Baseline is a set of accepted finding fingerprints: findings whose
// fingerprint is in the set are "known" and suppressed from failing a
// run. The zero value is an empty baseline.
type Baseline map[string]bool

// Apply splits ds into the findings not covered by the baseline
// (fresh — the ones a CI gate should fail on) and the known ones
// (suppressed). Order is preserved.
func (b Baseline) Apply(ds []Diagnostic) (fresh, suppressed []Diagnostic) {
	for _, d := range ds {
		if b[FingerprintString(d)] {
			suppressed = append(suppressed, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	return fresh, suppressed
}

// baselineHeader is the first line of a baseline file; ReadBaseline
// rejects files that do not start with it, so a stray file passed to
// -baseline fails loudly instead of suppressing nothing.
const baselineHeader = "# chglint baseline v1"

// WriteBaseline writes a baseline file accepting ds: the version
// header, then one line per distinct fingerprint — the fingerprint
// followed by a human-oriented "rule class::member" annotation that
// ReadBaseline ignores. Lines are sorted by fingerprint, so the file
// is byte-stable and diffs minimally under churn.
func WriteBaseline(w io.Writer, ds []Diagnostic) error {
	type entry struct{ fp, note string }
	seen := make(map[string]bool, len(ds))
	entries := make([]entry, 0, len(ds))
	for _, d := range ds {
		fp := FingerprintString(d)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		note := d.Rule
		if d.Class != "" {
			note += " " + d.Class
			if d.Member != "" {
				note += "::" + d.Member
			}
		}
		entries = append(entries, entry{fp, note})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	if _, err := fmt.Fprintln(w, baselineHeader); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "%s %s\n", e.fp, e.note); err != nil {
			return err
		}
	}
	return nil
}

// ReadBaseline parses a baseline file written by WriteBaseline.
// Blank lines and later comment lines are ignored; everything after
// a fingerprint on its line is annotation.
func ReadBaseline(r io.Reader) (Baseline, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("diag: empty baseline file (want %q header)", baselineHeader)
	}
	if strings.TrimSpace(sc.Text()) != baselineHeader {
		return nil, fmt.Errorf("diag: not a baseline file (want %q header, got %q)", baselineHeader, sc.Text())
	}
	b := Baseline{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fp := text
		if i := strings.IndexByte(text, ' '); i >= 0 {
			fp = text[:i]
		}
		if len(fp) != 4+16 || !strings.HasPrefix(fp, "chg-") {
			return nil, fmt.Errorf("diag: baseline line %d: malformed fingerprint %q", line, fp)
		}
		b[fp] = true
	}
	return b, sc.Err()
}
