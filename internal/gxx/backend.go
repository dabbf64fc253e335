package gxx

// Backend adapts the g++ 2.7.2.1 breadth-first lookup to the
// core.Semantics resolution-backend interface, so the baseline —
// Figure 9 bug included — can be served through the same packed-cell
// caches (analyzer memo, eager tables, engine snapshot columns) as
// the paper's algorithm, instead of rebuilding subobject graphs per
// query. That is what turns the Figure 9 divergence from a bespoke
// lint rule into an ordinary cross-backend table diff.

import (
	"sync"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/subobject"
)

// Backend serves g++-style lookups as a core.Semantics and resolves
// through core.ClassResolver alone: whole-table builds fill its rows,
// and lazy caches fill each cell as a row of one member. Outcomes map
// onto result kinds as:
//
//	NotFound          → Undefined
//	Resolved          → Red (declaring class, Ω)
//	ReportedAmbiguous → Blue {(c1, Ω), (c2, Ω)} — the incomparable
//	                    subobject pair's classes, the scan's quitting
//	                    witness (possibly a *false* ambiguity)
//	graph over limit  → FailKind blaming the context class, for every
//	                    name: the baseline is exponential in the
//	                    subobject graph, and beyond the limit it has
//	                    no answer; core keeps the failure only for
//	                    the class's members
//
// Subobject graphs and their scan orders are built once per context
// class and cached, so a row costs one graph, one scan order, and one
// walk along that order per member.
type Backend struct {
	g     *chg.Graph
	pool  *core.Pool
	limit int

	mu    sync.Mutex
	scans map[chg.ClassID]*Scan // nil entry = over limit
}

// Every cache resolves a non-kernel backend through ResolveClass.
var _ core.ClassResolver = (*Backend)(nil)

// NewBackend returns a g++ backend over g, packing results into pool
// (nil gets a fresh private pool). limit bounds each context class's
// subobject graph (0 = subobject.DefaultLimit); classes beyond it
// resolve to FailKind.
func NewBackend(g *chg.Graph, pool *core.Pool, limit int) *Backend {
	if pool == nil {
		pool = core.NewPool()
	}
	return &Backend{
		g:     g,
		pool:  pool,
		limit: limit,
		scans: map[chg.ClassID]*Scan{},
	}
}

// ID names the backend.
func (b *Backend) ID() core.SemanticsID { return core.SemGxx }

// Graph returns the underlying CHG.
func (b *Backend) Graph() *chg.Graph { return b.g }

// Pool returns the payload pool results are packed over.
func (b *Backend) Pool() *core.Pool { return b.pool }

// scanFor returns c's cached subobject graph scan, building it on
// first use; (nil, false) means the graph exceeded the limit. Building
// under the mutex single-flights concurrent requests for one class.
func (b *Backend) scanFor(c chg.ClassID) (*Scan, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.scans[c]; ok {
		return s, s != nil
	}
	var s *Scan
	if sg, err := subobject.Build(b.g, c, b.limit); err == nil {
		s = NewScan(sg)
	}
	b.scans[c] = s
	return s, s != nil
}

// pack converts one scan outcome into a packed result.
func (b *Backend) pack(r Result, tr Trace, sg *subobject.Graph) core.Result {
	switch r.Outcome {
	case Resolved:
		return b.pool.Red(core.Def{L: r.Class, V: chg.Omega})
	case ReportedAmbiguous:
		c1 := sg.Class(tr.Conflict[0])
		c2 := sg.Class(tr.Conflict[1])
		if c2 < c1 {
			c1, c2 = c2, c1
		}
		defs := []core.Def{{L: c1, V: chg.Omega}}
		if c2 != c1 {
			defs = append(defs, core.Def{L: c2, V: chg.Omega})
		}
		return b.pool.Blue(defs)
	default:
		return core.UndefinedResult()
	}
}

// ResolveClass fills a row from one cached subobject graph scan.
func (b *Backend) ResolveClass(c chg.ClassID, ms []chg.MemberID, out []core.Cell) {
	s, ok := b.scanFor(c)
	if !ok {
		cell := b.pool.Fail(c).Cell()
		for i := range out {
			out[i] = cell
		}
		return
	}
	for i, m := range ms {
		r, tr := s.LookupTrace(m)
		out[i] = b.pack(r, tr, s.Graph()).Cell()
	}
}
