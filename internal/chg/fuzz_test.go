package chg_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// binGraph spells out MarshalBinary's form: names in id order and,
// per class, raw base words (base<<1 | virtual) and declaration words
// (member id | kind<<16 | static<<18 | virtual<<19). encode writes it
// without checking anything, so malformed graphs can be encoded.
type binGraph struct {
	classes, members []string
	bases, decls     [][]uint32
}

func (b binGraph) encode() []byte {
	out := append([]byte(nil), "chg\x01"...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.classes)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.members)))
	names := append(slices.Clone(b.classes), b.members...)
	for _, n := range names {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(n)))
	}
	for _, n := range names {
		out = append(out, n...)
	}
	for c := range b.classes {
		var bases, decls []uint32
		if c < len(b.bases) {
			bases = b.bases[c]
		}
		if c < len(b.decls) {
			decls = b.decls[c]
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(bases)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(decls)))
		for _, w := range append(bases, decls...) {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
	}
	return out
}

// malformedBinary are binary graphs UnmarshalBinary must reject: a
// cycle, an out-of-range base, a duplicate class, a duplicate
// declaration, class and member names that are not valid UTF-8, a
// member name listed twice, a declaration word with a reserved bit or
// an out-of-range member id, a trailing byte, and a 20-byte header
// claiming 2^31 classes.
var malformedBinary = [][]byte{
	binGraph{classes: []string{"A", "B"}, bases: [][]uint32{{1 << 1}, {0 << 1}}}.encode(),
	binGraph{classes: []string{"A"}, bases: [][]uint32{{7<<1 | 1}}}.encode(),
	binGraph{classes: []string{"A", "A"}}.encode(),
	binGraph{classes: []string{"A"}, members: []string{"m"}, decls: [][]uint32{{0, 0 | 1<<16}}}.encode(),
	binGraph{classes: []string{"A\xff", "A\xfe"}}.encode(),
	binGraph{classes: []string{"A"}, members: []string{"m\xff"}}.encode(),
	binGraph{classes: []string{"A"}, members: []string{"m", "m"}}.encode(),
	binGraph{classes: []string{"A"}, members: []string{"m"}, decls: [][]uint32{{1 << 20}}}.encode(),
	binGraph{classes: []string{"A"}, members: []string{"m"}, decls: [][]uint32{{5}}}.encode(),
	append(binGraph{classes: []string{"A"}}.encode(), 0),
	append([]byte("chg\x01\x00\x00\x00\x80"), make([]byte, 12)...),
}

// malformedJSON are JSON graphs ReadJSON must reject: a cycle, an
// out-of-range base, a duplicate class, a duplicate declaration, and a
// member-name list that leaves out a declared name or lists one twice.
var malformedJSON = []string{
	`{"Classes":[{"Name":"A","Bases":[{"Base":1}]},{"Name":"B","Bases":[{"Base":0}]}]}`,
	`{"Classes":[{"Name":"A","Bases":[{"Base":7,"Virtual":true}]}]}`,
	`{"Classes":[{"Name":"A"},{"Name":"A"}]}`,
	`{"Classes":[{"Name":"A","Members":[{"Name":"m"},{"Name":"m","Kind":1}]}]}`,
	`{"MemberNames":["m"],"Classes":[{"Name":"A","Members":[{"Name":"n"}]}]}`,
	`{"MemberNames":["m","m"],"Classes":[{"Name":"A","Members":[{"Name":"m"}]}]}`,
}

// FuzzDecodeGraph feeds every input to ReadJSON and UnmarshalBinary.
// Each decode returns either an error or a graph, never a panic; a
// graph UnmarshalBinary accepts re-encodes to the same bytes; a decoded
// graph re-encodes to the same JSON, with the same member names at the
// same ids, through both forms; every declaration carries its name's
// member id, and Declares and DeclaredMember agree with the
// declaration list; a Builder made from it builds it again and edits
// it without changing it; and on graphs of at most 64 classes the
// ancestry accessors match a test-local base relation.
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
	for _, bin := range malformedBinary {
		f.Add(bin)
	}
	for _, js := range malformedJSON {
		f.Add([]byte(js))
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
				checkDecls(t, d.g)
				checkRebuild(t, d.g)
				checkClosures(t, d.g)
			}
		}
		if g2 != nil {
			bin, err := g2.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bin, data) {
				t.Fatalf("an accepted binary graph re-encodes to other bytes:\n%x\nwant:\n%x", bin, data)
			}
		}
	})
}

// checkReencode asserts that g's JSON decodes, through JSON and
// through the binary form, to graphs with the same JSON and the same
// member name at every id.
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
	viaBinary, err := chg.UnmarshalBinary(bin)
	if err != nil {
		t.Fatalf("re-reading a decoded graph's binary form: %v", err)
	}
	for _, h := range []*chg.Graph{viaJSON, viaBinary} {
		if got := jsonOf(t, h); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded JSON differs:\n%s\nwant:\n%s", got, want)
		}
		if !slices.Equal(h.MemberNames(), g.MemberNames()) {
			t.Fatalf("re-decoded member names %q, want %q", h.MemberNames(), g.MemberNames())
		}
	}
}

// checkDecls asserts that each class's declarations carry the ids
// MemberID gives their names, and that Declares and DeclaredMember
// answer every (class, member id) pair as a scan of DeclaredMembers.
func checkDecls(t *testing.T, g *chg.Graph) {
	t.Helper()
	for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
		ds := g.DeclaredMembers(c)
		for i, d := range ds {
			if id, ok := g.MemberID(d.Name); !ok || id != d.ID {
				t.Fatalf("%s's declaration %d (%s) has id %d; MemberID gives %d, %v", g.Name(c), i, d.Name, d.ID, id, ok)
			}
		}
		for m := chg.MemberID(0); int(m) < g.NumMemberNames(); m++ {
			i := slices.IndexFunc(ds, func(d chg.Decl) bool { return d.ID == m })
			mem, ok := g.DeclaredMember(c, m)
			if g.Declares(c, m) != (i >= 0) || ok != (i >= 0) || ok && mem != ds[i].Member {
				t.Fatalf("%s, %s: Declares %v, DeclaredMember %+v, %v; declarations %v",
					g.Name(c), g.MemberName(m), g.Declares(c, m), mem, ok, ds)
			}
		}
	}
}

// checkRebuild asserts that chg.NewBuilderFrom(g) builds a graph with
// g's JSON, order and virtual-base lists, and that the same builder can
// then add a class deriving from class 0, remove a declaration and
// build again, leaving g's JSON as it was.
func checkRebuild(t *testing.T, g *chg.Graph) {
	t.Helper()
	want := jsonOf(t, g)
	b := chg.NewBuilderFrom(g)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("rebuilding a decoded graph: %v", err)
	}
	if got := jsonOf(t, h); !bytes.Equal(got, want) {
		t.Fatalf("rebuilt JSON differs:\n%s\nwant:\n%s", got, want)
	}
	if !slices.Equal(h.Topo(), g.Topo()) {
		t.Fatalf("rebuilt order %v, want %v", h.Topo(), g.Topo())
	}
	for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
		if !slices.Equal(h.VirtualBases(c), g.VirtualBases(c)) {
			t.Fatalf("rebuilt VirtualBases(%s) = %v, want %v", g.Name(c), h.VirtualBases(c), g.VirtualBases(c))
		}
	}
	if g.NumClasses() == 0 {
		return
	}
	name := "added"
	for _, taken := g.ID(name); taken; _, taken = g.ID(name) {
		name += "'"
	}
	b.Base(b.Class(name), 0, chg.Virtual)
	for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
		if ms := g.DeclaredMembers(c); len(ms) > 0 {
			b.RemoveMember(c, g.MustMemberID(ms[0].Name))
			break
		}
	}
	if _, err := b.Build(); err != nil {
		t.Fatalf("building a decoded graph again after edits: %v", err)
	}
	if got := jsonOf(t, g); !bytes.Equal(got, want) {
		t.Fatalf("editing a builder made from a decoded graph changed it:\n%s\nwant:\n%s", got, want)
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

// checkClosures pins, on graphs of at most 64 classes, the ancestry
// accessors against a test-local base relation built by DFS up the
// direct bases: the virtual-base lists against the definition — x is a
// virtual base of d iff some virtual edge x→y has y = d or y a base of
// d — IsBase, both cone walks, and VisibleMembers.
func checkClosures(t *testing.T, g *chg.Graph) {
	t.Helper()
	n := g.NumClasses()
	if n == 0 || n > 64 {
		return
	}
	anc := make([]bitset.Set, n)
	for d := range anc {
		anc[d].Grow(n)
		stack := []chg.ClassID{chg.ClassID(d)}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.DirectBases(c) {
				if !anc[d].Has(int(e.Base)) {
					anc[d].Add(int(e.Base))
					stack = append(stack, e.Base)
				}
			}
		}
	}
	var queue []chg.ClassID
	visited := new(bitset.Set)
	for d := chg.ClassID(0); int(d) < n; d++ {
		var want []chg.ClassID
		var desc []int
		members := map[chg.MemberID]bool{}
		for y := chg.ClassID(0); int(y) < n; y++ {
			if anc[y].Has(int(d)) {
				desc = append(desc, int(y))
			}
			if y != d && !anc[d].Has(int(y)) {
				continue
			}
			for _, mem := range g.DeclaredMembers(y) {
				members[g.MustMemberID(mem.Name)] = true
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
			if got := g.IsBase(x, d); got != anc[d].Has(int(x)) {
				t.Fatalf("IsBase(%s, %s) = %v", g.Name(x), g.Name(d), got)
			}
		}
		var up, down []int
		queue = g.EachAncestor(d, visited, queue, func(c chg.ClassID) { up = append(up, int(c)) })
		queue = g.EachDescendant(d, visited, queue, func(c chg.ClassID) { down = append(down, int(c)) })
		slices.Sort(up)
		slices.Sort(down)
		if want := anc[d].Elems(); !slices.Equal(up, want) {
			t.Fatalf("EachAncestor(%s) visited %v, want %v", g.Name(d), up, want)
		}
		if !slices.Equal(down, desc) {
			t.Fatalf("EachDescendant(%s) visited %v, want %v", g.Name(d), down, desc)
		}
		vis := g.VisibleMembers(d)
		if len(vis) != len(members) || !slices.IsSorted(vis) {
			t.Fatalf("VisibleMembers(%s) = %v, want the sorted ids of %v", g.Name(d), vis, members)
		}
		for _, m := range vis {
			if !members[m] {
				t.Fatalf("VisibleMembers(%s) = %v, want the sorted ids of %v", g.Name(d), vis, members)
			}
		}
	}
}
