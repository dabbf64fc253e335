package core

import (
	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// Table is the fully tabulated lookup function: one entry per class C
// and member name m ∈ Members[C]. After construction every lookup is
// a binary search in the class's member list — effectively the
// constant-time table access the paper describes ("once the table has
// been constructed, every lookup operation takes constant time").
// The table stores one packed Cell per entry over the kernel's shared
// payload pool: rows are flat uint64 slices (no per-result heap
// structs), and entries that carry the same rare payload — the same
// Blue set, static coverage, or path — share one interned copy.
type Table struct {
	g       *chg.Graph
	pool    *Pool
	members [][]chg.MemberID // per class, sorted: the paper's Members[C]
	results [][]Cell         // parallel to members, packed over pool
}

// BuildTable eagerly computes lookup[C,m] for every class C and every
// m ∈ Members[C] in one topological pass — the algorithm of Figure 8
// exactly: Members[C] = M[C] ∪ ⋃ Members[X] over direct bases X
// (lines [6]–[9]), then the dominating-definition computation per
// member (lines [11]–[45]).
//
// Complexity: O(|M| · |N| · (|N|+|E|)) worst case, and
// O((|M|+|N|) · (|N|+|E|)) when no table entry is ambiguous, matching
// Section 5's analysis.
func (a *Analyzer) BuildTable() *Table {
	if a.k != nil {
		return a.k.BuildTable()
	}
	return BuildSemTable(a.sem, 1)
}

// BuildTable is the kernel-level eager tabulation; the Table it
// returns is immutable and safe for concurrent readers.
func (k *Kernel) BuildTable() *Table {
	g := k.g
	n := g.NumClasses()
	t := &Table{
		g:       g,
		pool:    k.pool,
		members: memberUniverse(g),
		results: make([][]Cell, n),
	}
	for _, c := range g.Topo() {
		ms := t.members[c]
		rs := make([]Cell, len(ms))
		for i, m := range ms {
			rs[i] = k.Resolve(c, m, func(x chg.ClassID) Result { return t.Lookup(x, m) }).Cell()
		}
		t.results[c] = rs
	}
	return t
}

// MemberMatrix computes the membership matrix of Figure 8 lines
// [6]–[9] in one topological sweep: row C is Members[C] = M[C] ∪
// ⋃ Members[X] over direct bases X — each class sets the names it
// declares and ors in its bases' rows, 64 names per word. Column m is
// exactly supp(m) = {C : m ∈ Members[C]}, the support cone the block
// fill prunes with.
func MemberMatrix(g *chg.Graph) *bitset.Matrix {
	mm := bitset.NewMatrixRect(g.NumClasses(), g.NumMemberNames())
	for _, c := range g.Topo() {
		row := mm.Row(int(c))
		for _, mem := range g.DeclaredMembers(c) {
			id, _ := g.MemberID(mem.Name)
			row.Add(int(id))
		}
		for _, e := range g.DirectBases(c) {
			mm.OrRow(int(c), int(e.Base))
		}
	}
	return mm
}

// memberUniverse expands Members[C] into the per-class sorted member
// lists the Table stores — the construction the paper-literal builds
// (BuildTable and the unpruned baseline) share.
func memberUniverse(g *chg.Graph) [][]chg.MemberID {
	mm := MemberMatrix(g)
	members := make([][]chg.MemberID, g.NumClasses())
	for c := range members {
		row := mm.Row(c)
		ms := make([]chg.MemberID, 0, row.Count())
		row.ForEach(func(i int) { ms = append(ms, chg.MemberID(i)) })
		members[c] = ms
	}
	return members
}

// Lookup returns lookup[c,m]; Undefined when m ∉ Members[c].
func (t *Table) Lookup(c chg.ClassID, m chg.MemberID) Result {
	if !t.g.Valid(c) {
		return UndefinedResult()
	}
	if i := memberIndex(t.members[c], m); i >= 0 {
		return t.pool.View(t.results[c][i])
	}
	return UndefinedResult()
}

// LookupByName resolves by names; Undefined for unknown names.
func (t *Table) LookupByName(class, member string) Result {
	c, ok := t.g.ID(class)
	if !ok {
		return UndefinedResult()
	}
	m, ok := t.g.MemberID(member)
	if !ok {
		return UndefinedResult()
	}
	return t.Lookup(c, m)
}

// Members returns Members[c]: every member name visible in class c,
// sorted by id. Shared slice; do not modify.
func (t *Table) Members(c chg.ClassID) []chg.MemberID { return t.members[c] }

// Graph returns the underlying CHG.
func (t *Table) Graph() *chg.Graph { return t.g }

// Entries returns the total number of table entries Σ|Members[C]|.
func (t *Table) Entries() int {
	n := 0
	for _, ms := range t.members {
		n += len(ms)
	}
	return n
}

// CountAmbiguous returns how many table entries are Blue — the
// "program with no ambiguous lookups" of the complexity analysis has
// zero.
func (t *Table) CountAmbiguous() int {
	n := 0
	for _, rs := range t.results {
		for _, cell := range rs {
			if cell.Kind() == BlueKind {
				n++
			}
		}
	}
	return n
}
