package chg

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func graphsIsomorphic(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumClasses() != b.NumClasses() || a.NumEdges() != b.NumEdges() ||
		a.NumVirtualEdges() != b.NumVirtualEdges() {
		t.Fatalf("shape differs: %s vs %s", a.ComputeStats(), b.ComputeStats())
	}
	for c := 0; c < a.NumClasses(); c++ {
		ca := ClassID(c)
		cb, ok := b.ID(a.Name(ca))
		if !ok {
			t.Fatalf("class %s missing after round trip", a.Name(ca))
		}
		ba, bb := a.DirectBases(ca), b.DirectBases(cb)
		if len(ba) != len(bb) {
			t.Fatalf("%s: base count differs", a.Name(ca))
		}
		for i := range ba {
			if a.Name(ba[i].Base) != b.Name(bb[i].Base) || ba[i].Kind != bb[i].Kind {
				t.Fatalf("%s: base %d differs", a.Name(ca), i)
			}
		}
		ma, mb := a.DeclaredMembers(ca), b.DeclaredMembers(cb)
		if len(ma) != len(mb) {
			t.Fatalf("%s: member count differs", a.Name(ca))
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("%s: member %d differs: %+v vs %+v", a.Name(ca), i, ma[i], mb[i])
			}
		}
		// Derived data recomputed identically.
		for d := 0; d < a.NumClasses(); d++ {
			da := ClassID(d)
			db := b.MustID(a.Name(da))
			if a.IsBase(da, ca) != b.IsBase(db, cb) ||
				a.IsVirtualBase(da, ca) != b.IsVirtualBase(db, cb) {
				t.Fatalf("closures differ at (%s, %s)", a.Name(da), a.Name(ca))
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := figure2(t)
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	graphsIsomorphic(t, g, g2)
}

func TestJSONRoundTrip(t *testing.T) {
	g := figure2(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Name": "A"`) {
		t.Errorf("JSON not human-shaped:\n%s", buf.String())
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsIsomorphic(t, g, g2)
}

func TestRoundTripRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 3+rng.Intn(25))
		// add some members of each kind
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := UnmarshalBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		graphsIsomorphic(t, g, g2)
	}
}

func TestRoundTripAllMemberKinds(t *testing.T) {
	b := NewBuilder()
	x := b.Class("X")
	b.Member(x, Member{Name: "f", Kind: Method, Virtual: true})
	b.Member(x, Member{Name: "s", Kind: Field, Static: true})
	b.Member(x, Member{Name: "T", Kind: TypeName})
	b.Member(x, Member{Name: "K", Kind: Enumerator})
	g := b.MustBuild()
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	graphsIsomorphic(t, g, g2)
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalBinary([]byte("not a graph at all")); err == nil {
		t.Error("garbage should fail to decode")
	}
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
}

func TestUnmarshalRejectsInvalidStructure(t *testing.T) {
	// Out-of-range base index.
	if _, err := ReadJSON(strings.NewReader(`{"Classes":[{"Name":"A","Bases":[{"Base":7,"Virtual":false}]}]}`)); err == nil {
		t.Error("out-of-range base should fail")
	}
	// Duplicate class names.
	if _, err := ReadJSON(strings.NewReader(`{"Classes":[{"Name":"A"},{"Name":"A"}]}`)); err == nil {
		t.Error("duplicate class should fail")
	}
	// A decoded cycle must be rejected by Build's validation.
	if _, err := ReadJSON(strings.NewReader(
		`{"Classes":[{"Name":"A","Bases":[{"Base":1}]},{"Name":"B","Bases":[{"Base":0}]}]}`)); err == nil {
		t.Error("cycle should fail")
	}
	// A listed member-name universe must name every declared member,
	// once each.
	for what, js := range map[string]string{
		"an unlisted declared member": `{"MemberNames":["m"],"Classes":[{"Name":"A","Members":[{"Name":"n"}]}]}`,
		"a name listed twice":         `{"MemberNames":["m","m"],"Classes":[{"Name":"A","Members":[{"Name":"m"}]}]}`,
		"an empty listed name":        `{"MemberNames":[""],"Classes":[{"Name":"A"}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(js)); err == nil {
			t.Errorf("MemberNames with %s should fail", what)
		}
	}
	// JSON cannot carry invalid UTF-8, so neither does the binary form:
	// a member name no class declares is checked too.
	b := NewBuilder()
	b.Class("A")
	b.MemberName("m\xff")
	data, err := b.MustBuild().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBinary(data); err == nil {
		t.Error("an invalid UTF-8 member name should fail")
	}
}

// TestReadJSONWithoutMemberNames reads JSON written before the
// member-name universe was stored: names are interned in
// first-declaration order.
func TestReadJSONWithoutMemberNames(t *testing.T) {
	g, err := ReadJSON(strings.NewReader(`{"Classes":[{"Name":"A","Members":[{"Name":"b"},{"Name":"a"}]},{"Name":"B","Bases":[{"Base":0}],"Members":[{"Name":"c"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MemberNames(); !slices.Equal(got, []string{"b", "a", "c"}) {
		t.Fatalf("MemberNames() = %q, want [b a c]", got)
	}
}

// TestUnmarshalBinaryChecksCountsFirst decodes a 20-byte binary graph
// whose header claims 2^31 classes: the decoder must reject it before
// allocating anything for them.
func TestUnmarshalBinaryChecksCountsFirst(t *testing.T) {
	data := append([]byte(binaryMagic), make([]byte, 16)...)
	le.PutUint32(data[4:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 20-byte graph of 2^31 classes decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1024 {
		t.Fatalf("rejecting it allocated %d bytes, want under 1 KB", alloc)
	}
}
