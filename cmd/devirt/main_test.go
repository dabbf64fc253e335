package main

import (
	"bytes"
	"strings"
	"testing"

	"cpplookup/internal/hiergen"
)

// FuzzReadSites feeds arbitrary call-site files to readSites over
// Figure 9: it must not panic, must return only sites naming a class
// and member of the graph, and must keep one line per site.
func FuzzReadSites(f *testing.F) {
	g := hiergen.Figure9()
	var buf bytes.Buffer
	if err := hiergen.WriteCallSites(&buf, g, hiergen.CallSites(g, 24, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, seed := range []string{
		"", "::", "A::", "::m", "A::B::m", "E::m", "  E::m  \n",
		"# a comment\n\nA::m\n# E::m\n", "\n\n\n", "A::m\r\nB::m\r\n",
		"Unknown::m\nA::unknown\n", "A::::m", "::::",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sites, lines, _, err := readSites(strings.NewReader(in), g)
		if err != nil {
			return
		}
		if len(lines) != len(sites) {
			t.Fatalf("%d lines for %d sites", len(lines), len(sites))
		}
		for i, s := range sites {
			if !g.Valid(s.Class) || s.Member < 0 || int(s.Member) >= g.NumMemberNames() {
				t.Fatalf("site %d (%q) = %+v is not in the graph", i, lines[i], s)
			}
		}
	})
}

// TestReadSitesLongLine: a line past the scanner's 1 MiB limit is an
// error, not a silent truncation.
func TestReadSitesLongLine(t *testing.T) {
	g := hiergen.Figure9()
	in := "A::m\n" + strings.Repeat("x", 1<<20+1) + "::m\nE::m\n"
	if _, _, _, err := readSites(strings.NewReader(in), g); err == nil {
		t.Fatal("readSites accepted a line longer than 1 MiB")
	}
	sites, lines, skipped, err := readSites(strings.NewReader("A::m\n# c\n\nZ::m\nE::m\n"), g)
	if err != nil || len(sites) != 2 || len(lines) != 2 || skipped != 1 {
		t.Fatalf("readSites = %d sites, %d lines, %d skipped, %v; want 2, 2, 1, nil", len(sites), len(lines), skipped, err)
	}
}
