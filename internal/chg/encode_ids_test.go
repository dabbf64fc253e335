package chg_test

import (
	"bytes"
	"strings"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// TestCodecsKeepMemberIDs pins that both forms keep every member id: a
// graph decoded from MarshalBinary's or WriteJSON's output has the
// encoded graph's member-name universe, with the same name at every
// id, names no class declares included. Figure 8's table and a
// snapshot image's cell plane are indexed by member id, so a renumbered
// universe would answer each cell with another member's result.
func TestCodecsKeepMemberIDs(t *testing.T) {
	giant := hiergen.GiantDefaults(2000)
	giant.MemberNames = 512
	b := chg.NewBuilder()
	a := b.Class("A")
	b.Method(a, "gone")
	b.Base(b.Class("B"), a, chg.Virtual)
	b.Method(b.Class("C"), "kept")
	b.MustBuild()
	b.RemoveMember(a, b.MemberName("gone"))
	for _, tc := range []struct {
		name string
		g    *chg.Graph
	}{
		{"sparse-200c-1000m", hiergen.SparseMembers(200, 1000, 3, 7)},
		{"sparse-400c-2000m", hiergen.SparseMembers(400, 2000, 3, 11)},
		{"giant-2000c-512m", hiergen.Giant(giant)},
		{"giant-3000c", hiergen.Giant(hiergen.GiantDefaults(3000))},
		{"freeze-after-remove", b.MustBuild()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin, err := tc.g.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			viaBinary, err := chg.UnmarshalBinary(bin)
			if err != nil {
				t.Fatal(err)
			}
			var js bytes.Buffer
			if err := tc.g.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			viaJSON, err := chg.ReadJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			for form, h := range map[string]*chg.Graph{"binary": viaBinary, "json": viaJSON} {
				want := tc.g.MemberNames()
				moved := 0
				for m, name := range h.MemberNames() {
					if m >= len(want) || name != want[m] {
						moved++
					}
				}
				if h.NumMemberNames() != len(want) || moved > 0 {
					t.Errorf("%s: %d member names decoded as %d, %d of them at another id", form, len(want), h.NumMemberNames(), moved)
				}
			}
		})
	}
}

// TestMalformedSeedsRejected pins that every malformed seed of
// FuzzDecodeGraph is rejected by the decoder it is written for.
func TestMalformedSeedsRejected(t *testing.T) {
	for i, bin := range malformedBinary {
		if _, err := chg.UnmarshalBinary(bin); err == nil {
			t.Errorf("malformed binary seed %d decoded", i)
		}
	}
	for i, js := range malformedJSON {
		if _, err := chg.ReadJSON(strings.NewReader(js)); err == nil {
			t.Errorf("malformed JSON seed %d decoded", i)
		}
	}
}
