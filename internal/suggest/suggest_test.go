package suggest

import (
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

func TestDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b  string
		limit int
		want  int
	}{
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"abc", "ab", 2, 1},
		{"abc", "abcd", 2, 1},
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, -1},
		{"a", "xyz", 2, -1},    // length gap exceeds limit
		{"Draw", "draw", 2, 0}, // case-insensitive
		{"rdstate", "rdstat", 2, 1},
		{"", "ab", 2, 2},
		{"ab", "", 2, 2},
	} {
		if got := Distance(tc.a, tc.b, tc.limit); got != tc.want {
			t.Errorf("Distance(%q, %q, %d) = %d, want %d", tc.a, tc.b, tc.limit, got, tc.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	words := []string{"draw", "drav", "flags", "flag", "rdstate", "x", ""}
	for _, a := range words {
		for _, b := range words {
			if Distance(a, b, 3) != Distance(b, a, 3) {
				t.Errorf("Distance(%q, %q) asymmetric", a, b)
			}
		}
	}
}

func TestMembersSuggestions(t *testing.T) {
	g := hiergen.Realistic(2, 1)
	top := hiergen.RealisticTop(g, 2, 1)
	// "rdstat" should suggest "rdstate" (inherited through the whole
	// hierarchy — the candidate set is Members[C], not just M[C]).
	got := Members(g, top, "rdstat", 3)
	if len(got) == 0 || got[0] != "rdstate" {
		t.Errorf("suggestions for rdstat = %v", got)
	}
	// An exact name never suggests itself.
	for _, s := range Members(g, top, "rdstate", 5) {
		if s == "rdstate" {
			t.Error("suggested the queried name itself")
		}
	}
	// Nothing plausible → empty.
	if got := Members(g, top, "zzzzzzzzz", 3); len(got) != 0 {
		t.Errorf("suggestions for gibberish = %v", got)
	}
}

func TestMembersShortNamesTightLimit(t *testing.T) {
	b := chg.NewBuilder()
	x := b.Class("X")
	b.Method(x, "ab")
	b.Method(x, "qz")
	g := b.MustBuild()
	// With a 1-edit limit for short names, "ac" matches "ab" but not
	// "qz".
	got := Members(g, x, "ac", 5)
	if len(got) != 1 || got[0] != "ab" {
		t.Errorf("short-name suggestions = %v", got)
	}
}

func TestMembersMaxAndOrdering(t *testing.T) {
	b := chg.NewBuilder()
	x := b.Class("X")
	for _, n := range []string{"mash", "mass", "mask", "most"} {
		b.Method(x, n)
	}
	g := b.MustBuild()
	got := Members(g, x, "masq", 2)
	if len(got) != 2 {
		t.Fatalf("max not applied: %v", got)
	}
	// All distance-1 candidates; alphabetical tie-break.
	if got[0] != "mash" || got[1] != "mask" {
		t.Errorf("ordering = %v", got)
	}
}

func TestClassesSuggestions(t *testing.T) {
	g := hiergen.Figure3()
	got := Classes(g, "a", 3)
	if len(got) == 0 || got[0] != "A" {
		t.Errorf("class suggestions for 'a' = %v", got)
	}
	g2 := hiergen.Realistic(2, 1)
	got = Classes(g2, "iostrem0", 3)
	if len(got) == 0 || got[0] != "iostream0" {
		t.Errorf("class suggestions = %v", got)
	}
}

// Equal-distance candidates must rank alphabetically — the tie-break
// that keeps did-you-mean output (and therefore diagnostic text)
// deterministic.
func TestMembersRankingTies(t *testing.T) {
	b := chg.NewBuilder()
	c := b.Class("C")
	// All four are distance 1 from "datx"; none equals it.
	b.Method(c, "data")
	b.Method(c, "date")
	b.Method(c, "dats")
	b.Method(c, "datu")
	g := b.MustBuild()

	got := Members(g, g.MustID("C"), "datx", 0)
	want := []string{"data", "date", "dats", "datu"}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want alphabetical tie-break %v", got, want)
		}
	}

	// A closer candidate still outranks the alphabetically-earliest
	// tie: distance sorts before name.
	b2 := chg.NewBuilder()
	d := b2.Class("D")
	b2.Method(d, "aeld")  // distance 2 from "field", alphabetically first
	b2.Method(d, "fielx") // distance 1
	g2 := b2.MustBuild()
	if got := Members(g2, g2.MustID("D"), "field", 2); len(got) != 2 || got[0] != "fielx" {
		t.Errorf("Members = %v, want the distance-1 candidate first", got)
	}

	// max truncates after the deterministic order is fixed.
	if got := Members(g, g.MustID("C"), "datx", 2); len(got) != 2 || got[0] != "data" || got[1] != "date" {
		t.Errorf("Members with max=2 = %v, want [data date]", got)
	}
}

// Classes uses the same ranking; ties in a hierarchy's class names
// come out alphabetically too.
func TestClassesRankingTies(t *testing.T) {
	b := chg.NewBuilder()
	b.Class("Base1")
	b.Class("Base2")
	b.Class("Base3")
	g := b.MustBuild()
	got := Classes(g, "Base", 0)
	want := []string{"Base1", "Base2", "Base3"}
	if len(got) != len(want) {
		t.Fatalf("Classes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Classes = %v, want %v", got, want)
		}
	}
}
