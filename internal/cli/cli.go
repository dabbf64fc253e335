// Package cli implements the logic behind the cmd/ executables so it
// can be tested without spawning processes: argument parsing stays in
// the mains, everything that does work and formats output lives here.
package cli

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/interp"
	"cpplookup/internal/layout"
	"cpplookup/internal/slicing"
	"cpplookup/internal/subobject"
	"cpplookup/internal/vtable"
)

// Analyze runs the frontend over src. It returns the unit and whether
// the program was clean (no diagnostics).
func Analyze(src string) (*sema.Unit, bool, error) {
	unit, err := sema.AnalyzeSource(src)
	if err != nil {
		return nil, false, err
	}
	return unit, len(unit.Diags) == 0, nil
}

// QuerySnapshot publishes g through a fresh single-hierarchy engine
// and returns the snapshot every query command works against. The
// kernel carries the full option set (static rule + paths) because
// the CLI's outputs want both; the engine makes the same snapshot
// safe to hand to as many goroutines as a server cares to run.
func QuerySnapshot(g *chg.Graph) *engine.Snapshot {
	return QuerySnapshotSem(g)
}

// QuerySnapshotSem is QuerySnapshot with extra resolution backends:
// the snapshot additionally serves every listed semantics (the
// dominance id is always served and may be listed or not). Unknown
// ids return an error.
func QuerySnapshotSem(g *chg.Graph, sems ...core.SemanticsID) *engine.Snapshot {
	opts := []core.Option{core.WithStaticRule(), core.WithTrackPaths()}
	if len(sems) > 0 {
		opts = append(opts, core.WithSemantics(sems...))
	}
	snap, err := engine.New().Register("unit", g, opts...)
	if err != nil {
		// The name is fresh and g comes from a successful build; with
		// ids validated by semantics.ParseIDs the only way here is a
		// nil graph, which is a caller bug.
		panic(err)
	}
	return snap
}

// SplitQualified splits "Class::member".
func SplitQualified(s string) (class, member string, ok bool) {
	i := strings.Index(s, "::")
	if i <= 0 || i+2 >= len(s) {
		return "", "", false
	}
	return s[:i], s[i+2:], true
}

// PrintResolutions writes one line per member access, compiler-style.
func PrintResolutions(w io.Writer, unit *sema.Unit) {
	g := unit.Graph
	for _, r := range unit.Resolutions {
		switch {
		case r.Result.Found():
			fmt.Fprintf(w, "%s: %s.%s -> %s::%s\n", r.Pos, g.Name(r.Context), r.MemberName,
				g.Name(r.Result.Class()), r.MemberName)
		case r.Result.Ambiguous():
			fmt.Fprintf(w, "%s: %s.%s -> AMBIGUOUS %s\n", r.Pos, g.Name(r.Context), r.MemberName,
				r.Result.Format(g))
		default:
			fmt.Fprintf(w, "%s: %s.%s -> NOT FOUND\n", r.Pos, g.Name(r.Context), r.MemberName)
		}
	}
}

// PrintDiags writes the diagnostics, one per line, in the unified
// diagnostic format shared with chglint.
func PrintDiags(w io.Writer, unit *sema.Unit) {
	diag.WriteText(w, unit.Diagnostics(""))
}

// PrintLookup resolves one qualified name against the snapshot and
// describes the result.
func PrintLookup(w io.Writer, snap *engine.Snapshot, class, member string) {
	g := snap.Graph()
	r := snap.LookupByName(class, member)
	switch r.Kind() {
	case core.RedKind:
		names := make([]string, len(r.Path()))
		for i, id := range r.Path() {
			names[i] = g.Name(id)
		}
		fmt.Fprintf(w, "lookup(%s, %s) = %s::%s  [%s, path %s]\n",
			class, member, g.Name(r.Class()), member, r.Format(g), strings.Join(names, "->"))
	case core.BlueKind:
		fmt.Fprintf(w, "lookup(%s, %s) is ambiguous: %s\n", class, member, r.Format(g))
	default:
		fmt.Fprintf(w, "lookup(%s, %s): no such member\n", class, member)
	}
}

// PrintLookupSem resolves one qualified name under the named backend.
// The dominance id prints the classic PrintLookup line — tagged with
// its id only when the run compares several backends, so single-
// backend output stays byte-identical to PrintLookup. Other backends
// print their id and the packed result's format (C3 can
// fail-to-linearize, gxx can diverge — both are first-class results,
// not errors).
func PrintLookupSem(w io.Writer, snap *engine.Snapshot, id core.SemanticsID, class, member string, tagged bool) {
	if id == core.SemDominance {
		if tagged {
			fmt.Fprintf(w, "[%s] ", id)
		}
		PrintLookup(w, snap, class, member)
		return
	}
	g := snap.Graph()
	var r core.Result
	c, cok := g.ID(class)
	m, mok := g.MemberID(member)
	if cok && mok {
		r, _ = snap.LookupSem(id, c, m)
	}
	switch r.Kind() {
	case core.RedKind:
		fmt.Fprintf(w, "[%s] lookup(%s, %s) = %s::%s  [%s]\n",
			id, class, member, g.Name(r.Class()), member, r.Format(g))
	case core.BlueKind:
		fmt.Fprintf(w, "[%s] lookup(%s, %s) is ambiguous: %s\n", id, class, member, r.Format(g))
	case core.FailKind:
		fmt.Fprintf(w, "[%s] lookup(%s, %s) cannot be answered: %s\n", id, class, member, r.Format(g))
	default:
		fmt.Fprintf(w, "[%s] lookup(%s, %s): no such member\n", id, class, member)
	}
}

// PrintTable writes the whole lookup table, classes in topological
// order.
func PrintTable(w io.Writer, snap *engine.Snapshot) {
	_ = PrintTableSem(w, snap, core.SemDominance, false) // every snapshot serves dominance
}

// PrintTableSem writes the whole lookup table under the named
// backend, classes in topological order; withHeader prefixes the dump
// with a backend banner for multi-semantics runs.
func PrintTableSem(w io.Writer, snap *engine.Snapshot, id core.SemanticsID, withHeader bool) error {
	if withHeader {
		fmt.Fprintf(w, "== semantics: %s ==\n", id)
	}
	table, ok := snap.TableSem(id)
	if !ok {
		return fmt.Errorf("snapshot does not serve semantics %q", id)
	}
	g := snap.Graph()
	for _, c := range g.Topo() {
		ms := table.Members(c)
		if len(ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", g.Name(c))
		for _, m := range ms {
			fmt.Fprintf(w, "  %-20s %s\n", g.MemberName(m), table.Lookup(c, m).Format(g))
		}
	}
	return nil
}

// PrintVTables writes every class's virtual function table.
func PrintVTables(w io.Writer, g *chg.Graph) error {
	for _, vt := range vtable.NewBuilder(g).BuildAll() {
		if err := vt.Write(w, g); err != nil {
			return err
		}
	}
	return nil
}

// PrintSlice slices the hierarchy to the given "Class::member"
// criteria and writes the sliced program as source.
func PrintSlice(w io.Writer, g *chg.Graph, spec string) error {
	var criteria []slicing.Criterion
	for _, part := range strings.Split(spec, ",") {
		class, member, ok := SplitQualified(strings.TrimSpace(part))
		if !ok {
			return fmt.Errorf("slice criteria must be Class::member, got %q", part)
		}
		cid, ok := g.ID(class)
		if !ok {
			return fmt.Errorf("unknown class %q", class)
		}
		mid, ok := g.MemberID(member)
		if !ok {
			return fmt.Errorf("unknown member %q", member)
		}
		criteria = append(criteria, slicing.Criterion{Class: cid, Member: mid})
	}
	s, err := slicing.Compute(g, criteria)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "// slice: %s\n", s.Stats)
	return s.Graph.WriteSource(w)
}

// PrintAmbiguities lists every ambiguous (class, member) table entry
// of a program — the whole-program static analysis a compiler or
// linter would run.
func PrintAmbiguities(w io.Writer, snap *engine.Snapshot) int {
	g := snap.Graph()
	n := 0
	snap.EachTableEntry(func(c chg.ClassID, m chg.MemberID, r core.Result) {
		if r.Ambiguous() {
			fmt.Fprintf(w, "%s::%s is ambiguous (%s)\n", g.Name(c), g.MemberName(m), r.Format(g))
			n++
		}
	})
	if n == 0 {
		fmt.Fprintln(w, "no ambiguous lookups")
	}
	return n
}

// PrintLayout writes the complete-object layout of the named class.
func PrintLayout(w io.Writer, g *chg.Graph, class string) error {
	cid, ok := g.ID(class)
	if !ok {
		return fmt.Errorf("unknown class %q", class)
	}
	l, err := layout.Of(g, cid, 0)
	if err != nil {
		return err
	}
	return l.Write(w)
}

// RunProgram executes the program's named function with the
// interpreter and dumps every global object's memory afterwards —
// subobject by subobject, so the effect of each member access on the
// object's copies is visible.
func RunProgram(w io.Writer, src, fn string) error {
	m, err := interp.New(src)
	if err != nil {
		return err
	}
	ret, err := m.Run(fn)
	if err != nil {
		return err
	}
	if ret.Kind == interp.Int {
		fmt.Fprintf(w, "%s returned %d\n", fn, ret.Int)
	} else {
		fmt.Fprintf(w, "%s returned\n", fn)
	}
	g := m.Graph()
	// Dump class-typed globals and the entry function's locals,
	// deterministically by name.
	vars := map[string]*interp.Value{}
	for _, name := range m.GlobalNames() {
		if v, ok := m.Global(name); ok {
			vars[name] = v
		}
	}
	for _, name := range m.LocalNames() {
		if v, ok := m.Local(name); ok {
			vars[name] = v
		}
	}
	var names []string
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := vars[name]
		if v == nil || v.Kind != interp.Reference {
			continue
		}
		obj := v.Ref.Obj
		fmt.Fprintf(w, "%s: %s object, %d field cells\n", name, g.Name(obj.Class), len(obj.Mem))
		for _, r := range obj.Layout.Regions() {
			for _, mem := range g.DeclaredMembers(r.Class) {
				if mem.Kind != chg.Field || mem.Static {
					continue
				}
				val, err := readRegionField(m, obj, r, mem.Name)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "  [%s].%s = %d\n", regionLabel(g, r), mem.Name, val)
			}
		}
	}
	return nil
}

func readRegionField(m *interp.Machine, obj *interp.Object, r layout.Region, field string) (int64, error) {
	mid, ok := m.Graph().MemberID(field)
	if !ok {
		return 0, fmt.Errorf("unknown field")
	}
	return m.ReadRegionField(obj, r.Key, mid)
}

func regionLabel(g *chg.Graph, r layout.Region) string {
	return fmt.Sprintf("%s@%d", g.Name(r.Class), r.Offset)
}

// WriteCHGDot and WriteSubobjectsDot wrap the DOT exports.
func WriteCHGDot(w io.Writer, g *chg.Graph) error {
	return g.WriteDOT(w, "class-hierarchy")
}

// WriteSubobjectsDot renders the subobject graph of the named class.
func WriteSubobjectsDot(w io.Writer, g *chg.Graph, class string, limit int) error {
	cid, ok := g.ID(class)
	if !ok {
		return fmt.Errorf("unknown class %q", class)
	}
	sg, err := subobject.Build(g, cid, limit)
	if err != nil {
		return err
	}
	return sg.WriteDOT(w, "subobjects-"+class)
}
