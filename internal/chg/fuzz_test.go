package chg_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"slices"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// wireGraph mirrors the field names of chg's unexported wire form, so
// malformed hierarchies can be encoded for both decoders.
type wireGraph struct{ Classes []wireClass }

type wireClass struct {
	Name    string
	Bases   []wireEdge
	Members []chg.Member
}

type wireEdge struct {
	Base    int32
	Virtual bool
}

// malformedSeeds are hierarchies decoding must reject: a cycle, an
// out-of-range base, a duplicate class, a duplicate member, and two
// class names that differ only in bytes JSON cannot carry (which the
// gob decoder once accepted, though the graph's JSON did not read back).
var malformedSeeds = []wireGraph{
	{[]wireClass{{Name: "A", Bases: []wireEdge{{Base: 1}}}, {Name: "B", Bases: []wireEdge{{Base: 0}}}}},
	{[]wireClass{{Name: "A", Bases: []wireEdge{{Base: 7, Virtual: true}}}}},
	{[]wireClass{{Name: "A"}, {Name: "A"}}},
	{[]wireClass{{Name: "A", Members: []chg.Member{{Name: "m"}, {Name: "m", Kind: chg.Field}}}}},
	{[]wireClass{{Name: "A\xff"}, {Name: "A\xfe"}}},
}

// FuzzDecodeGraph feeds every input to ReadJSON and UnmarshalBinary.
// Each decode returns either an error or a graph, never a panic; a
// decoded graph re-encodes to the same JSON through both wire forms;
// and on graphs of at most 64 classes the virtual-base lists match the
// definition and EachDescendant walks exactly Descendants.
func FuzzDecodeGraph(f *testing.F) {
	for _, g := range []*chg.Graph{
		hiergen.Figure1(), hiergen.Figure2(), hiergen.Figure3(), hiergen.Figure9(),
		hiergen.Random(hiergen.RandomConfig{
			Classes: 24, MaxBases: 3, VirtualProb: 0.4,
			MemberNames: 5, MemberProb: 0.2, StaticProb: 0.2, Seed: 8,
		}),
		hiergen.Giant(hiergen.GiantConfig{
			Classes: 48, MemberNames: 12, Interfaces: 3, FatWidth: 4,
			TowerHeight: 2, ChainLen: 3, Decls: 30, VirtualProb: 0.5, Seed: 3,
		}),
	} {
		var js bytes.Buffer
		if err := g.WriteJSON(&js); err != nil {
			f.Fatal(err)
		}
		bin, err := g.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js.Bytes())
		f.Add(bin)
	}
	for _, w := range malformedSeeds {
		js, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		var bin bytes.Buffer
		if err := gob.NewEncoder(&bin).Encode(w); err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		f.Add(bin.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g1, err1 := chg.ReadJSON(bytes.NewReader(data))
		g2, err2 := chg.UnmarshalBinary(data)
		for _, d := range []struct {
			g   *chg.Graph
			err error
		}{{g1, err1}, {g2, err2}} {
			if (d.g == nil) == (d.err == nil) {
				t.Fatalf("decode returned graph %v and error %v", d.g != nil, d.err)
			}
			if d.g != nil {
				checkReencode(t, d.g)
				checkClosures(t, d.g)
			}
		}
	})
}

// checkReencode asserts that g's JSON decodes, through JSON and
// through gob, to graphs with the same JSON.
func checkReencode(t *testing.T, g *chg.Graph) {
	t.Helper()
	want := jsonOf(t, g)
	viaJSON, err := chg.ReadJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("re-reading a decoded graph's JSON: %v\n%s", err, want)
	}
	bin, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	viaGob, err := chg.UnmarshalBinary(bin)
	if err != nil {
		t.Fatalf("re-reading a decoded graph's gob: %v", err)
	}
	for _, h := range []*chg.Graph{viaJSON, viaGob} {
		if got := jsonOf(t, h); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded JSON differs:\n%s\nwant:\n%s", got, want)
		}
	}
}

func jsonOf(t *testing.T, g *chg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkClosures pins, on graphs of at most 64 classes, the virtual-base
// lists against the definition — x is a virtual base of d iff some
// virtual edge x→y has y = d or y ∈ Bases(d) — and EachDescendant
// against Descendants.
func checkClosures(t *testing.T, g *chg.Graph) {
	t.Helper()
	n := g.NumClasses()
	if n == 0 || n > 64 {
		return
	}
	var queue []chg.ClassID
	visited := new(bitset.Set)
	for d := chg.ClassID(0); int(d) < n; d++ {
		var want []chg.ClassID
		for y := chg.ClassID(0); int(y) < n; y++ {
			if y != d && !g.Bases(d).Has(int(y)) {
				continue
			}
			for _, e := range g.DirectBases(y) {
				if e.Kind == chg.Virtual {
					want = append(want, e.Base)
				}
			}
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := g.VirtualBases(d); !slices.Equal(got, want) {
			t.Fatalf("VirtualBases(%s) = %v, want %v", g.Name(d), got, want)
		}
		for x := chg.ClassID(0); int(x) < n; x++ {
			if got := g.IsVirtualBase(x, d); got != slices.Contains(want, x) {
				t.Fatalf("IsVirtualBase(%s, %s) = %v", g.Name(x), g.Name(d), got)
			}
		}
		var walked []int
		queue = g.EachDescendant(d, visited, queue, func(c chg.ClassID) { walked = append(walked, int(c)) })
		slices.Sort(walked)
		if want := g.Descendants(d).Elems(); !slices.Equal(walked, want) {
			t.Fatalf("EachDescendant(%s) visited %v, want %v", g.Name(d), walked, want)
		}
	}
}
