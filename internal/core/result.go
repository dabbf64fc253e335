// Package core implements the paper's member lookup algorithm
// (Figure 8 of Ramalingam & Srinivasan, PLDI 1997): a single
// topological pass over the class hierarchy graph that propagates
// *abstractions* of definitions instead of the definitions (paths)
// themselves.
//
// For every class C and member name m the algorithm computes
// lookup[C,m], which is either
//
//	Red (L, V)  — the lookup is unambiguous; L = ldc of the winning
//	              definition (the class whose member is found) and
//	              V = leastVirtual of the definition path (Ω if the
//	              path has no virtual edge);
//	Blue S      — the lookup is ambiguous; S abstracts the
//	              definitions that caused the ambiguity.
//
// Dominance between two red abstractions is decided by Lemma 4 with
// two probes: (L1,V1) dominates (L2,V2) iff V2 is a virtual base of
// L1 (a binary search of L1's sorted virtual-base list, which §5
// suggests keeping as a boolean matrix instead), or V1 = V2 ≠ Ω. The full path of a winning
// definition can optionally be carried along (TrackPaths) without
// changing the complexity, since at most one red definition crosses
// each edge.
//
// The package provides an eager, whole-table construction
// (Analyzer.BuildTable — the paper's tabulating algorithm), a lazy
// memoizing variant (Analyzer.Lookup — the paper's "memoising lazy
// algorithm", filled by FillRun, the recursion internal/engine's
// concurrent snapshots fill through too), the static-member extension
// of Definitions 16–17 (WithStaticRule), and reference/naive variants
// used for the figures and the ablation benchmarks.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"cpplookup/internal/chg"
)

// Kind discriminates the outcome of a lookup.
type Kind uint8

const (
	// Undefined: m is not a member of C at all (Defns(C, m) = ∅).
	Undefined Kind = iota
	// RedKind: the lookup is unambiguous.
	RedKind
	// BlueKind: the lookup is ambiguous.
	BlueKind
	// FailKind: the resolution backend could not produce an answer
	// for this class at all — C3 linearization failed (the merge has
	// no consistent order), or the g++ baseline's subobject graph
	// exceeded its size limit. Figure 8 dominance never produces it;
	// it exists so alternative semantics can report "no answer" as a
	// first-class result instead of panicking. Def().L carries the
	// class to blame (the origin of the failure).
	FailKind
)

func (k Kind) String() string {
	switch k {
	case Undefined:
		return "undefined"
	case RedKind:
		return "red"
	case BlueKind:
		return "blue"
	case FailKind:
		return "fail"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Def is the abstraction of a definition: the pair
// (ldc(α), leastVirtual(α)) of Section 4 ("Abstracting Paths").
// V may be chg.Omega. In blue sets produced without the static rule,
// only V is meaningful (the paper propagates bare leastVirtual values
// for blue definitions); L is then chg.Omega.
type Def struct {
	L chg.ClassID
	V chg.ClassID
}

// Result is the value of lookup[C,m] — a read-only view over a packed
// Cell and the Pool that interns the cell's rare payload (if any).
// The view is two words; copying it copies no result data. All
// accessors are safe for concurrent use, like the cell and pool they
// read.
//
// The zero Result reads as Undefined, matching the old zero struct;
// compare results with Equal (or field-by-field through the
// accessors), never with ==, since == would compare pool identity.
type Result struct {
	cell Cell
	pool *Pool
}

// Cell returns the packed word. Together with the originating pool
// (Pool.View) it round-trips the result exactly; this is what FillRun
// stores in a lazy cache's runs.
func (r Result) Cell() Cell { return r.cell }

// Kind returns the outcome: Undefined, RedKind, or BlueKind.
func (r Result) Kind() Kind { return r.cell.Kind() }

// Def returns the winning (ldc, leastVirtual) abstraction for RedKind
// results, and the zero Def otherwise.
func (r Result) Def() Def {
	switch r.cell.tag() {
	case cellTagRed:
		return r.cell.inlineDef()
	case cellTagPooled:
		return r.pool.payloadDef(r.cell.poolIndex())
	}
	return Def{}
}

// StaticSet holds, for RedKind results under the static rule, every
// leastVirtual abstraction of the resolved static member's subobject
// copies (Definition 17 lets several same-class copies be maximal
// together). nil means the singleton {Def().V}. The set must be
// carried: a later definition dominates this result only if it
// dominates *every* copy, and dropping a copy's abstraction can turn
// a truly ambiguous lookup into a false resolution. Shared storage;
// do not modify.
func (r Result) StaticSet() []chg.ClassID {
	if r.cell.tag() == cellTagPooled {
		return r.pool.payloadStaticSet(r.cell.poolIndex())
	}
	return nil
}

// StaticRed is the subset of StaticSet whose copies were resolved as
// genuinely red (most-dominant) definitions; nil means all of
// StaticSet. Copies absorbed from ambiguous inheritances by the
// same-static-member rule are covered (they must be dominated by any
// later winner) but give no kill power through Lemma 4's equality
// condition, whose proof needs the dominator to be red. Shared
// storage; do not modify.
func (r Result) StaticRed() []chg.ClassID {
	if r.cell.tag() == cellTagPooled {
		return r.pool.payloadStaticRed(r.cell.poolIndex())
	}
	return nil
}

// Blue returns the abstraction set S for BlueKind results, sorted and
// deduplicated; nil otherwise. Shared storage; do not modify.
func (r Result) Blue() []Def {
	if r.cell.tag() == cellTagPooled {
		return r.pool.payloadBlue(r.cell.poolIndex())
	}
	return nil
}

// Path returns the full node sequence of the winning definition path
// (ldc … C) when the analyzer was built WithTrackPaths; nil
// otherwise. Compilers need this to generate subobject casts for the
// access (Section 4). Shared storage; do not modify.
func (r Result) Path() []chg.ClassID {
	if r.cell.tag() == cellTagPooled {
		return r.pool.payloadPath(r.cell.poolIndex())
	}
	return nil
}

// vsetLen/vsetAt iterate the result's leastVirtual coverage set
// (RedKind) without allocating — the packed replacement for the old
// vset() helper, whose singleton case built a fresh slice on every
// dominance probe.
func (r Result) vsetLen() int {
	if ss := r.StaticSet(); ss != nil {
		return len(ss)
	}
	return 1
}

func (r Result) vsetAt(i int) chg.ClassID {
	if ss := r.StaticSet(); ss != nil {
		return ss[i]
	}
	return r.Def().V
}

// redsetLen/redsetAt iterate the subset of the coverage usable as
// Lemma-4 equality dominators, likewise allocation-free.
func (r Result) redsetLen() int {
	if sr := r.StaticRed(); sr != nil {
		return len(sr)
	}
	return r.vsetLen()
}

func (r Result) redsetAt(i int) chg.ClassID {
	if sr := r.StaticRed(); sr != nil {
		return sr[i]
	}
	return r.vsetAt(i)
}

// Ambiguous reports whether the lookup failed due to ambiguity.
func (r Result) Ambiguous() bool { return r.Kind() == BlueKind }

// Failed reports whether the backend could not produce an answer for
// this class (FailKind). The class to blame is Def().L.
func (r Result) Failed() bool { return r.Kind() == FailKind }

// Found reports whether the lookup resolved to a member.
func (r Result) Found() bool { return r.Kind() == RedKind }

// Class returns the class declaring the resolved member (ldc), valid
// only for RedKind results.
func (r Result) Class() chg.ClassID { return r.Def().L }

// Equal reports whether two results carry the same logical value,
// regardless of which pool (if any) backs each. This is the
// equivalence the oracle and eager/lazy/snapshot cross-checks use.
func (r Result) Equal(o Result) bool {
	if r.Kind() != o.Kind() || r.Def() != o.Def() {
		return false
	}
	return idsEqual(r.StaticSet(), o.StaticSet()) &&
		idsEqual(r.StaticRed(), o.StaticRed()) &&
		idsEqual(r.Path(), o.Path()) &&
		defsEqual(r.Blue(), o.Blue())
}

func idsEqual(a, b []chg.ClassID) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func defsEqual(a, b []Def) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultData is the unpacked wide-struct shape of a result — the old
// representation, kept as the rendering/serialization intermediate so
// String and JSON output stay byte-identical to the former exported
// struct.
type resultData struct {
	Kind      Kind
	Def       Def
	StaticSet []chg.ClassID
	StaticRed []chg.ClassID
	Blue      []Def
	Path      []chg.ClassID
}

func (r Result) data() resultData {
	return resultData{
		Kind:      r.Kind(),
		Def:       r.Def(),
		StaticSet: r.StaticSet(),
		StaticRed: r.StaticRed(),
		Blue:      r.Blue(),
		Path:      r.Path(),
	}
}

// String renders the logical fields in struct order, exactly as the
// old struct printed under %v.
func (r Result) String() string { return fmt.Sprint(r.data()) }

// MarshalJSON emits the same document the old exported struct did:
// every field present, nil slices as null.
func (r Result) MarshalJSON() ([]byte, error) { return json.Marshal(r.data()) }

// format helpers — these render results in the notation of the
// paper's Figures 6 and 7, e.g. "red (A, Ω)" or "blue {Ω}".

func className(g *chg.Graph, c chg.ClassID) string {
	if c == chg.Omega {
		return "Ω"
	}
	return g.Name(c)
}

// Format renders the result in the figures' notation.
func (r Result) Format(g *chg.Graph) string {
	switch r.Kind() {
	case RedKind:
		d := r.Def()
		return fmt.Sprintf("red (%s, %s)", className(g, d.L), className(g, d.V))
	case BlueKind:
		blue := r.Blue()
		parts := make([]string, len(blue))
		for i, d := range blue {
			if d.L == chg.Omega {
				parts[i] = className(g, d.V)
			} else {
				parts[i] = fmt.Sprintf("(%s, %s)", className(g, d.L), className(g, d.V))
			}
		}
		return "blue {" + strings.Join(parts, ", ") + "}"
	case FailKind:
		return fmt.Sprintf("fail (%s)", className(g, r.Def().L))
	}
	return "undefined"
}

// sortDefs orders a blue set deterministically (by V then L).
// Insertion sort: blue sets are tiny (a handful of conflicting
// definitions), and unlike sort.Slice this allocates nothing — blue
// entries are on the table build's hot path.
func sortDefs(ds []Def) {
	for i := 1; i < len(ds); i++ {
		d := ds[i]
		j := i - 1
		for j >= 0 && (ds[j].V > d.V || (ds[j].V == d.V && ds[j].L > d.L)) {
			ds[j+1] = ds[j]
			j--
		}
		ds[j+1] = d
	}
}
