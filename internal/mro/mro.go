// Package mro implements C3 linearization — the method resolution
// order of Python (≥ 2.3), Dylan, and Raku — as a resolution backend
// over the same class hierarchy graphs the paper's dominance lookup
// runs on.
//
// Where Figure 8 decides each lookup by dominance between definition
// paths, C3 gives every class one total order over its base closure:
//
//	L(C) = C · merge(L(B1), …, L(Bn), [B1 … Bn])
//
// with merge taking the first head that appears in no other list's
// tail (Barrett et al., "A Monotonic Superclass Linearization for
// Dylan"; Hivert & Thiéry, arXiv 2401.12740). A lookup then resolves
// to the first class in L(C) that declares the member — never
// ambiguous, but the merge itself can fail when the base orders are
// contradictory ("Cannot create a consistent method resolution
// order"). That failure is a first-class outcome here: every lookup
// on a class whose linearization fails returns a core.FailKind result
// blaming the class where the merge first broke.
//
// The Backend implements core.Semantics and core.ClassResolver, the
// one way it resolves: whole-table builds fill its rows through
// ResolveClass, and lazy caches fill each cell as a row of one member.
// Results pack into the same word-sized Cells and interned payload
// pools as the dominance kernel, so engine snapshots, eager tables,
// and warm carry serve C3 unchanged.
package mro

import (
	"slices"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// Linearization holds the C3 orders of every class in one graph,
// computed eagerly in a single topological pass and immutable
// afterwards (hence safe for any number of concurrent readers).
type Linearization struct {
	g *chg.Graph
	// order[c] is L(c), nil when linearization failed.
	order [][]chg.ClassID
	// blame[c] is the class whose merge first broke on some path to c
	// (possibly c itself); chg.Omega when order[c] exists.
	blame []chg.ClassID
	// blocked[c] holds, for origin failures only (blame[c] == c), the
	// candidate heads that were each rejected — the witness of the
	// contradictory constraints.
	blocked [][]chg.ClassID
}

// Linearize computes every class's C3 linearization. A class whose
// own merge fails is an origin failure; classes inheriting (directly
// or transitively) from a failed class fail too, blaming the origin —
// exactly Python's behaviour, where defining such a class raises at
// class-creation time and anything below it can never exist.
func Linearize(g *chg.Graph) *Linearization {
	n := g.NumClasses()
	l := &Linearization{
		g:       g,
		order:   make([][]chg.ClassID, n),
		blame:   make([]chg.ClassID, n),
		blocked: make([][]chg.ClassID, n),
	}
	for i := range l.blame {
		l.blame[i] = chg.Omega
	}
	for _, c := range g.Topo() {
		bases := g.DirectBases(c)
		// Inherit the first failed base's blame: the merge below could
		// only fail more confusingly.
		failed := false
		for _, e := range bases {
			if l.order[e.Base] == nil {
				l.blame[c] = l.blame[e.Base]
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		lists := make([][]chg.ClassID, 0, len(bases)+1)
		for _, e := range bases {
			lists = append(lists, l.order[e.Base])
		}
		if len(bases) > 0 {
			local := make([]chg.ClassID, len(bases))
			for i, e := range bases {
				local[i] = e.Base
			}
			lists = append(lists, local)
		}
		out, blocked := merge(c, lists)
		if out == nil {
			l.blame[c] = c
			l.blocked[c] = blocked
			continue
		}
		l.order[c] = out
	}
	return l
}

// merge is the C3 merge: repeatedly take the earliest list head that
// occurs in no list's tail. On failure it returns (nil, heads), where
// heads are the distinct rejected candidates in list order — the
// conflict witness.
func merge(c chg.ClassID, lists [][]chg.ClassID) ([]chg.ClassID, []chg.ClassID) {
	total := 1
	for _, ls := range lists {
		total += len(ls)
	}
	out := make([]chg.ClassID, 1, total)
	out[0] = c
	// pos[i] is the cursor into lists[i] (everything before it has
	// been merged out); inTail counts, per class, how many lists still
	// hold it strictly after their cursor, making the "appears in some
	// tail" test O(1). Input lists are linearizations, so no class
	// repeats within one list.
	pos := make([]int, len(lists))
	inTail := map[chg.ClassID]int{}
	for _, ls := range lists {
		for _, x := range ls[1:] {
			inTail[x]++
		}
	}
	// advance moves list i's cursor past its current head; the element
	// that thereby becomes the new head leaves that list's tail.
	advance := func(i int) {
		pos[i]++
		if pos[i] < len(lists[i]) {
			inTail[lists[i][pos[i]]]--
		}
	}
	remaining := func() bool {
		for i, ls := range lists {
			if pos[i] < len(ls) {
				return true
			}
		}
		return false
	}
	for remaining() {
		pick := chg.Omega
		for i, ls := range lists {
			if pos[i] >= len(ls) {
				continue
			}
			if h := ls[pos[i]]; inTail[h] == 0 {
				pick = h
				break
			}
		}
		if pick == chg.Omega {
			// No acceptable head: every candidate sits in some other
			// list's tail. The distinct heads are the conflict witness.
			var heads []chg.ClassID
			seen := map[chg.ClassID]bool{}
			for i, ls := range lists {
				if pos[i] >= len(ls) {
					continue
				}
				if h := ls[pos[i]]; !seen[h] {
					seen[h] = true
					heads = append(heads, h)
				}
			}
			return nil, heads
		}
		out = append(out, pick)
		// pick occurs in no tail, so its every occurrence is a current
		// head; one advance per holding list removes it everywhere.
		for i, ls := range lists {
			if pos[i] < len(ls) && ls[pos[i]] == pick {
				advance(i)
			}
		}
	}
	return out, nil
}

// Order returns L(c) and true, or (nil, false) when linearization
// failed for c. Shared slice; do not modify.
func (l *Linearization) Order(c chg.ClassID) ([]chg.ClassID, bool) {
	if !l.g.Valid(c) || l.order[c] == nil {
		return nil, false
	}
	return l.order[c], true
}

// Failure reports whether c fails to linearize, and if so which class
// is to blame: c itself for an origin failure, otherwise the
// (transitive) base whose merge first broke.
func (l *Linearization) Failure(c chg.ClassID) (chg.ClassID, bool) {
	if !l.g.Valid(c) || l.order[c] != nil {
		return chg.Omega, false
	}
	return l.blame[c], true
}

// BlockedHeads returns, for an origin failure at c, the candidate
// heads the merge rejected — each appears in another list's tail, so
// no consistent order exists. nil for classes that linearize or that
// only inherit a failure. Shared slice; do not modify.
func (l *Linearization) BlockedHeads(c chg.ClassID) []chg.ClassID {
	if !l.g.Valid(c) {
		return nil
	}
	return l.blocked[c]
}

// Backend serves C3 lookups as a core.Semantics: resolved members are
// Red (declaring class, Ω) — linearization never produces ambiguity —
// names no class in L(c) declares are Undefined, and every name on a
// class that fails to linearize is core.FailKind blaming the origin
// class (core decides which of those names are members). All state
// is computed at construction and immutable, so every method is safe
// for concurrent use.
type Backend struct {
	g    *chg.Graph
	pool *core.Pool
	lin  *Linearization
}

// Every cache resolves a non-kernel backend through ResolveClass.
var _ core.ClassResolver = (*Backend)(nil)

// New returns a C3 backend over g, packing results into pool (a nil
// pool gets a fresh private one).
func New(g *chg.Graph, pool *core.Pool) *Backend {
	if pool == nil {
		pool = core.NewPool()
	}
	return &Backend{g: g, pool: pool, lin: Linearize(g)}
}

// ID names the backend.
func (b *Backend) ID() core.SemanticsID { return core.SemC3 }

// Graph returns the underlying CHG.
func (b *Backend) Graph() *chg.Graph { return b.g }

// Pool returns the payload pool results are packed over.
func (b *Backend) Pool() *core.Pool { return b.pool }

// Linearization exposes the computed orders (for lint rules and
// diagnostics).
func (b *Backend) Linearization() *Linearization { return b.lin }

// ResolveClass fills a row in one scan of L(c): walking the
// linearization front to back, the first declarer of each member wins,
// so each slot is written at most once. A class that fails to
// linearize fails every name.
func (b *Backend) ResolveClass(c chg.ClassID, ms []chg.MemberID, out []core.Cell) {
	if blame, failed := b.lin.Failure(c); failed {
		cell := b.pool.Fail(blame).Cell()
		for i := range out {
			out[i] = cell
		}
		return
	}
	order, _ := b.lin.Order(c)
	filled := 0
	for _, x := range order {
		if filled == len(out) {
			break
		}
		for _, d := range b.g.DeclaredMembers(x) {
			if i, ok := slices.BinarySearch(ms, d.ID); ok && out[i].Zero() {
				out[i] = b.pool.Red(core.Def{L: x, V: chg.Omega}).Cell()
				filled++
			}
		}
	}
	undef := core.UndefinedResult().Cell()
	for i := range out {
		if out[i].Zero() {
			out[i] = undef
		}
	}
}
