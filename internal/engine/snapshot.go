package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/semantics"
)

// shardCount is the number of writer locks per snapshot. Misses are
// striped by member name, the same axis along which Figure 8's
// dataflow decomposes (lookup[C,m] reads only entries for the same m),
// so one miss fills its whole recursion under a single lock. A modest
// power of two keeps the footprint small while making collisions
// between unrelated member names unlikely.
const shardCount = 32

// Snapshot is one immutable, versioned view of a hierarchy: a
// chg.Graph plus one concurrency-safe memoized lookup cache per
// resolution backend, all packed over the kernel's one payload pool.
// Any number of goroutines may call Lookup concurrently; a snapshot
// never changes once published, so readers holding one are isolated
// from later engine updates.
//
// Each backend's cache is one column of per-member runs (see run):
// run m holds member m's numClasses packed core.Cell words, indexed by
// class, read and written with sync/atomic word operations. A warm hit
// is one run-header load, one bounds check and one atomic word load —
// no locking, no hashing, and no per-result allocation, since the word
// itself encodes the common results and rare payloads live interned in
// the snapshot's pool. The zero word means "not filled yet" (core never
// encodes a result as zero). Writers fill misses under a
// per-member-name shard lock; each cell is computed and published once
// per snapshot. Runs are plain []uint64 rather than []atomic.Uint64 so
// that carry-over can stage a not-yet-published successor's copied runs
// with ordinary stores (publication through the engine's mutex provides
// the happens-before edge) instead of paying an atomic
// read-modify-write per carried cell.
type Snapshot struct {
	name    string
	version uint64
	k       *core.Kernel
	pool    *core.Pool

	// numClasses and numMembers bound every column's (class, member)
	// index: each column holds numMembers runs of numClasses words.
	numClasses, numMembers int

	// cols holds one cache column per backend the snapshot serves:
	// dominance (the kernel itself) first, then every backend
	// core.WithSemantics requested, in that order.
	cols []*column

	// carry records what UpdateCarried seeded this snapshot with; the
	// zero value for cold snapshots.
	carry CarryStats

	// garbageBound bounds from above the payloads of pool that no cell
	// of this snapshot referenced once the pool held poolSeen payloads;
	// the carry path weighs the pool only when the bound allows a
	// compaction (carriedSnapshot).
	garbageBound, poolSeen int
}

// column is one backend's cache: its cells, one run per member name
// (see run), the shard locks its misses fill under, and its eager
// table, built on first use. Every column follows the same discipline —
// atomic warm reads, per-member shard locks, zero word = unfilled —
// because Figure 8's lookup[C,m] reads only entries for the same m at
// C's bases, whatever the backend; so lock-free hits, fill-once,
// immutability after publish and warm carry across republishes hold per
// backend.
type column struct {
	id        core.SemanticsID
	sem       core.Semantics
	runs      []run
	fillLocks [shardCount]sync.Mutex
	tableOnce sync.Once
	table     *core.Table
}

// run is one member name's cells in one column: words[c] is the packed
// lookup[c, m], 0 until filled. Figure 8's dataflow splits by member
// name, so a fill's recursion over bases, devirt's walk over a cone and
// carry's cone clear each stay inside one run. Successive versions
// share a run whose member no edit touched (carry.go), so st, the
// bookkeeping of the words' backing array, is shared with it.
type run struct {
	words []uint64
	st    *runStore
}

// runStore is the bookkeeping every version sharing one run backing
// array shares.
type runStore struct {
	// filled counts the published words in the array. A fill counts a
	// word only if its atomic swap found the word unfilled, so a word
	// that two versions fill counts once.
	filled atomic.Int64
	// claimed is the length of the longest view of the array handed to
	// a version. Words past it were never visible to any version, so
	// they are still zero; a successor extends its predecessor's view
	// in place only by moving claimed from the predecessor's length
	// with a compare-and-swap, so one successor at most owns them.
	claimed atomic.Int64
	// adopted marks words adopted from outside the engine (an image's
	// mapped cells), which carry copies instead of sharing. It is set
	// before the run is published and never changes.
	adopted bool
}

// newRun returns a run of n zero words with room to grow in place by
// n/64+8 words or more: the allocator rounds the array up to its size
// class, and the run keeps the rounding as spare room too.
func newRun(n int) run {
	st := new(runStore)
	st.claimed.Store(int64(n))
	return run{words: slices.Grow([]uint64(nil), n+n/64+8)[:n], st: st}
}

// carve slices a flat member-major column of numM·n words into its
// numM runs, capping each at its own end so that no run can grow into
// the next. Each run gets a store that claims its n words and counts
// none filled.
func carve(cells []uint64, n, numM int) []run {
	runs := make([]run, numM)
	stores := make([]runStore, numM)
	for m := range runs {
		stores[m].claimed.Store(int64(n))
		runs[m] = run{words: cells[m*n : (m+1)*n : (m+1)*n], st: &stores[m]}
	}
	return runs
}

// NewSnapshot wraps g in a standalone snapshot (version 1, no engine).
// It panics if g is nil (with the same message as core.NewKernel) or
// if WithSemantics named a backend the registry does not know.
func NewSnapshot(g *chg.Graph, opts ...core.Option) *Snapshot {
	s, err := newSnapshot("", 1, core.NewKernel(g, opts...), nil)
	if err != nil {
		panic("engine: " + err.Error())
	}
	return s
}

// newSnapshot assembles a snapshot around k, deriving its columns from
// the kernel: dominance (k itself) first, then one backend per
// k.ExtraSemantics, each resolving into k's pool. cols, when non-nil,
// must hold those columns' ids and runs in that order; newSnapshot
// binds their backends. nil allocates zeroed (cold) columns.
func newSnapshot(name string, version uint64, k *core.Kernel, cols []*column) (*Snapshot, error) {
	g := k.Graph()
	numN, numM := g.NumClasses(), g.NumMemberNames()
	ids := columnIDs(k)
	if cols == nil {
		for _, id := range ids {
			cols = append(cols, &column{id: id, runs: carve(make([]uint64, numN*numM), numN, numM)})
		}
	} else if !slices.EqualFunc(cols, ids, func(col *column, id core.SemanticsID) bool { return col.id == id }) {
		return nil, fmt.Errorf("columns must be the backends %v, in order", ids)
	}
	cols[0].sem = k
	for _, col := range cols[1:] {
		sem, err := semantics.New(col.id, g, k.Pool())
		if err != nil {
			return nil, err
		}
		col.sem = sem
	}
	n := k.Pool().Len()
	return &Snapshot{
		name:         name,
		version:      version,
		k:            k,
		pool:         k.Pool(),
		numClasses:   numN,
		numMembers:   numM,
		cols:         cols,
		garbageBound: n,
		poolSeen:     n,
	}, nil
}

// columnIDs returns the backends a snapshot around k serves, in column
// order: dominance, then k.ExtraSemantics.
func columnIDs(k *core.Kernel) []core.SemanticsID {
	return append([]core.SemanticsID{core.SemDominance}, k.ExtraSemantics()...)
}

// Name returns the engine registration name ("" for standalone
// snapshots).
func (s *Snapshot) Name() string { return s.name }

// Version returns the snapshot's version, starting at 1 and bumped by
// every engine update of the same name.
func (s *Snapshot) Version() uint64 { return s.version }

// Graph returns the snapshot's immutable hierarchy.
func (s *Snapshot) Graph() *chg.Graph { return s.k.Graph() }

// Kernel returns the shared algorithm kernel.
func (s *Snapshot) Kernel() *core.Kernel { return s.k }

// Lookup resolves member m in the context of class c — the same
// memoising lazy algorithm as core.Analyzer.Lookup, filled by the same
// core.FillRun, but safe for concurrent callers: hits are answered from
// an atomically published cell without locking, and a miss takes only
// its member's shard lock while it fills the cell (and the recursive
// cells it needed) once.
func (s *Snapshot) Lookup(c chg.ClassID, m chg.MemberID) core.Result {
	return s.lookup(s.cols[0], c, m)
}

// lookup is Lookup against any column. A miss fills member m's run
// under m's shard lock, which covers FillRun's whole recursion, and
// adds the words the fill published to the run's count.
func (s *Snapshot) lookup(col *column, c chg.ClassID, m chg.MemberID) core.Result {
	if uint(m) >= uint(len(col.runs)) {
		return core.UndefinedResult()
	}
	r := col.runs[m]
	if uint(c) >= uint(len(r.words)) {
		return core.UndefinedResult()
	}
	if w := atomic.LoadUint64(&r.words[c]); w != 0 {
		return s.pool.View(core.Cell(w))
	}
	sh := &col.fillLocks[uint32(m)%shardCount]
	sh.Lock()
	res, n := core.FillRun(col.sem, r.words, c, m)
	if n > 0 {
		r.st.filled.Add(int64(n))
	}
	sh.Unlock()
	return res
}

// LookupByName resolves a member by class and member name; it returns
// an Undefined result if either name is unknown.
func (s *Snapshot) LookupByName(class, member string) core.Result {
	g := s.k.Graph()
	c, ok := g.ID(class)
	if !ok {
		return core.UndefinedResult()
	}
	m, ok := g.MemberID(member)
	if !ok {
		return core.UndefinedResult()
	}
	return s.Lookup(c, m)
}

// Table returns the snapshot's eagerly tabulated lookup function,
// building it on first use. The build runs core.BuildSemTable over the
// kernel once (all available workers); the resulting Table is
// immutable and shared by all callers.
func (s *Snapshot) Table() *core.Table { return s.cols[0].eagerTable() }

// EachTableEntry calls fn for every (class, member) pair of the
// snapshot's tabulated lookup function — classes in topological order
// (the graph's Topo, fixed at construction), member names in
// ascending id order within each class. This is the one deterministic
// iteration order every whole-table consumer (chglint's rules, the
// ambiguity listing) shares.
//
// Ordering contract: the sequence of (c, m, r) triples is a pure
// function of the snapshot's hierarchy — identical across calls,
// across goroutines, and across processes, regardless of what the
// lazy Lookup cache holds or which concurrent Lookup/LookupSem fills
// are in flight. Iteration reads only the eager Table (built
// once, on first use, from the immutable graph; never from the lazy
// cells), so concurrent fills cannot interleave with or reorder it.
// The results themselves are equally stable: a snapshot's cells are
// computed once and never change. The determinism test in
// tableiter_test.go pins both properties under a concurrent fill
// storm and on a fully warmed snapshot.
//
// fn must not call back into EachTableEntry's own Table build
// (Table/TableSem are safe — the build is complete by the time fn
// runs), and a slow fn simply slows this caller; it never blocks
// Lookup readers or fills.
func (s *Snapshot) EachTableEntry(fn func(c chg.ClassID, m chg.MemberID, r core.Result)) {
	t := s.Table()
	for _, c := range s.k.Graph().Topo() {
		for _, m := range t.Members(c) {
			fn(c, m, t.Lookup(c, m))
		}
	}
}

// CachedEntries reports how many lookup results the lazy cache
// currently holds (the table built by Table is not counted). Intended
// for tests and observability.
func (s *Snapshot) CachedEntries() int { return s.cols[0].filled() }

// Pool returns the snapshot's payload pool — the per-snapshot intern
// table for rare result payloads. Exposed for observability (the E13
// experiment reports its size and deduplication rate).
func (s *Snapshot) Pool() *core.Pool { return s.pool }
