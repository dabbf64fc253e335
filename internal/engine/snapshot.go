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
// Each backend's cache is one column, a dense member-major array of
// numMemberNames×numClasses packed core.Cell words (see cell), read
// and written with sync/atomic word operations: a warm hit is one
// array index and one atomic word load — no locking, no hashing, no
// pointer chase, and no per-result allocation, since the word itself
// encodes the common results and rare payloads live interned in the
// snapshot's pool. The zero word means "not filled yet" (core never
// encodes a result as zero). Writers fill misses under a
// per-member-name shard lock; each cell is computed and published
// exactly once. The slice is plain []uint64 rather than
// []atomic.Uint64 so that carry-over can stage a not-yet-published
// successor with ordinary stores (publication through the engine's
// mutex provides the happens-before edge) instead of paying an atomic
// read-modify-write per carried cell.
type Snapshot struct {
	name    string
	version uint64
	k       *core.Kernel
	pool    *core.Pool

	// numClasses and numMembers bound every column's (class, member)
	// index.
	numClasses, numMembers int

	// cols holds one cache column per backend the snapshot serves:
	// dominance (the kernel itself) first, then every backend
	// core.WithSemantics requested, in that order.
	cols []*column

	// carry records what UpdateCarried seeded this snapshot with; the
	// zero value for cold snapshots.
	carry CarryStats

	// poolWeighedLen and invalSinceWeigh gate the pool-compaction
	// scan on the carry path: the pool's length when it was last
	// weighed (counted live vs garbage), and the carried cells
	// invalidated since. Garbage only accrues through new interning
	// (pool growth) or cone clearing, so until their sum clears the
	// compaction floor a republish can skip the O(cells) weigh
	// entirely.
	poolWeighedLen  int
	invalSinceWeigh int
}

// column is one backend's cache: its cells, one contiguous run of
// numClasses words per member name (Snapshot.cell), the shard locks
// its misses fill under, and its eager table, built on first use.
// Every column follows the same discipline — atomic warm reads,
// per-member shard locks, zero word = unfilled — because Figure 8's
// lookup[C,m] reads only entries for the same m at C's bases, whatever
// the backend; so lock-free hits, fill-once, immutability after
// publish and warm carry across republishes hold per backend.
type column struct {
	id        core.SemanticsID
	sem       core.Semantics
	cells     []uint64
	fillLocks [shardCount]sync.Mutex
	tableOnce sync.Once
	table     *core.Table
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
// k.ExtraSemantics, each resolving into k's pool. cells, when non-nil,
// must supply those columns' cells in that order; they are adopted
// without copying. nil allocates zeroed (cold) columns.
func newSnapshot(name string, version uint64, k *core.Kernel, cells []CellColumn) (*Snapshot, error) {
	g := k.Graph()
	numN, numM := g.NumClasses(), g.NumMemberNames()
	size := numN * numM
	ids := append([]core.SemanticsID{core.SemDominance}, k.ExtraSemantics()...)
	if cells == nil {
		for _, id := range ids {
			cells = append(cells, CellColumn{ID: id, Cells: make([]uint64, size)})
		}
	} else if err := checkColumns(cells, ids, size); err != nil {
		return nil, err
	}
	cols := []*column{{id: core.SemDominance, sem: k, cells: cells[0].Cells}}
	for _, c := range cells[1:] {
		sem, err := semantics.New(c.ID, g, k.Pool())
		if err != nil {
			return nil, err
		}
		cols = append(cols, &column{id: c.ID, sem: sem, cells: c.Cells})
	}
	return &Snapshot{
		name:       name,
		version:    version,
		k:          k,
		pool:       k.Pool(),
		numClasses: numN,
		numMembers: numM,
		cols:       cols,
	}, nil
}

// checkColumns verifies that cells holds one column of size cells per
// backend in ids, in the same order, and names any repeated backend.
func checkColumns(cells []CellColumn, ids []core.SemanticsID, size int) error {
	for i, col := range cells {
		if slices.ContainsFunc(cells[:i], func(prev CellColumn) bool { return prev.ID == col.ID }) {
			return fmt.Errorf("duplicate %q column", col.ID)
		}
		if len(col.Cells) != size {
			return fmt.Errorf("column %q has %d cells, want %d", col.ID, len(col.Cells), size)
		}
	}
	if !slices.EqualFunc(cells, ids, func(col CellColumn, id core.SemanticsID) bool { return col.ID == id }) {
		return fmt.Errorf("columns must be the backends %v, in order", ids)
	}
	return nil
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
// memoising lazy algorithm as core.Analyzer.Lookup, but safe for
// concurrent callers: hits are answered from an atomically published
// cell without locking, and a miss takes only its member's shard lock
// while it fills the cell (and the recursive cells it needed) once.
func (s *Snapshot) Lookup(c chg.ClassID, m chg.MemberID) core.Result {
	return s.lookup(s.cols[0], c, m)
}

// cell returns the index of (c, m)'s word in every column of s.
// Columns are member-major: member m's cells are the numClasses
// contiguous words from m·numClasses. Figure 8's dataflow splits by
// member name, so a fill's recursion over bases, devirt's walk over a
// cone and carry's cone clear each stay inside one member's
// contiguous run.
func (s *Snapshot) cell(c chg.ClassID, m chg.MemberID) int {
	return int(m)*s.numClasses + int(c)
}

// lookup is Lookup against any column.
func (s *Snapshot) lookup(col *column, c chg.ClassID, m chg.MemberID) core.Result {
	if c < 0 || int(c) >= s.numClasses || m < 0 || int(m) >= s.numMembers {
		return core.UndefinedResult()
	}
	if w := atomic.LoadUint64(&col.cells[s.cell(c, m)]); w != 0 {
		return s.pool.View(core.Cell(w))
	}
	st := scratchPool.Get().(*core.ScratchStack)
	sh := &col.fillLocks[uint32(m)%shardCount]
	sh.Lock()
	r := s.fill(col, c, m, st)
	sh.Unlock()
	scratchPool.Put(st)
	return r
}

// scratchPool recycles the fill scratch frames across misses and
// goroutines, so steady-state misses are allocation-free.
var scratchPool = sync.Pool{New: func() any { return new(core.ScratchStack) }}

// fill computes lookup[c,m] into col, publishing every cell the
// computation produced as it goes; the caller holds m's shard lock in
// col. All recursive dependencies of (c,m) are entries for the same
// member name, hence under the same lock: one acquisition covers the
// whole recursion, and the re-check of each cell makes its computation
// happen once per snapshot even under contention. Publishing a cell is
// an atomic word store of the packed result; any rare payload was
// interned in the snapshot's pool before the word existed, so readers
// that observe the word also observe the fully initialised payload
// behind its index.
//
// The dominance column threads st through the kernel's recursion, one
// scratch frame per depth, so fills allocate nothing per miss. Its
// closure calls the kernel directly: handed to a backend through the
// core.Semantics interface, the closure would escape to the heap on
// every miss. Other backends (C3 and gxx ignore get) fill through
// Resolve.
func (s *Snapshot) fill(col *column, c chg.ClassID, m chg.MemberID, st *core.ScratchStack) core.Result {
	if k, ok := col.sem.(*core.Kernel); ok {
		depth := 0
		var lookup func(x chg.ClassID) core.Result
		lookup = func(x chg.ClassID) core.Result {
			i := s.cell(x, m)
			if w := atomic.LoadUint64(&col.cells[i]); w != 0 {
				// Already published — possibly by a writer ahead of us
				// while we waited on the lock.
				return s.pool.View(core.Cell(w))
			}
			depth++
			r := k.ResolveWith(x, m, lookup, st.At(depth-1))
			depth--
			return col.publish(i, r)
		}
		return lookup(c)
	}
	var lookup func(x chg.ClassID) core.Result
	lookup = func(x chg.ClassID) core.Result {
		i := s.cell(x, m)
		if w := atomic.LoadUint64(&col.cells[i]); w != 0 {
			return s.pool.View(core.Cell(w))
		}
		return col.publish(i, col.sem.Resolve(x, m, lookup))
	}
	return lookup(c)
}

// publish stores r's packed word at cell i and returns r.
func (col *column) publish(i int, r core.Result) core.Result {
	atomic.StoreUint64(&col.cells[i], uint64(r.Cell()))
	return r
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
