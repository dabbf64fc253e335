package core

// Pool compaction. A Pool only ever grows: payloads whose cells were
// dropped (by edits invalidating cached entries) stay interned
// forever. Over a long edit session that garbage accumulates, so the
// carry-over machinery periodically *chains* to a fresh pool:
// surviving cells are migrated — their live payloads re-interned into
// the new pool and their packed words rewritten to the new indices —
// while the old pool is left untouched for readers of older snapshots.
// Once the last old snapshot is dropped, the old pool and all its
// garbage become unreachable together.

// Migrator rewrites packed cells from one pool onto another,
// re-interning each distinct live payload exactly once. It is the
// mechanism behind pool compaction: walk the surviving cells of a
// cache, map each through Migrate, and the destination pool ends up
// holding precisely the payloads still referenced.
//
// A Migrator is single-goroutine (it memoizes into a plain map); use
// it before the migrated cells are published.
type Migrator struct {
	from, to *Pool
	remap    map[uint32]uint32
}

// NewMigrator returns a migrator from one pool to another. Both pools
// must be non-nil and distinct for migration to be meaningful; cells
// not backed by `from` must not be passed to Migrate.
func NewMigrator(from, to *Pool) *Migrator {
	return &Migrator{from: from, to: to, remap: make(map[uint32]uint32)}
}

// Migrate returns the cell rewritten against the destination pool.
// Inline cells (Undefined, plain Red, the zero word) carry no payload
// and pass through unchanged; pooled cells have their payload
// re-interned (memoized, so shared payloads stay shared) and the
// packed word's index replaced.
func (mg *Migrator) Migrate(c Cell) Cell {
	if c.tag() != cellTagPooled {
		return c
	}
	idx := c.poolIndex()
	ni, ok := mg.remap[idx]
	if !ok {
		ni = mg.to.intern(mg.from.payloadAt(idx))
		mg.remap[idx] = ni
	}
	return cellPooled(c.Kind(), ni)
}

// PoolLiveCounter counts the distinct interned payloads a set of
// packed cells references, without exposing payload indices. Callers
// feed it every surviving cell and compare Live() against Pool.Len()
// to measure garbage — the compaction trigger.
type PoolLiveCounter struct {
	seen map[uint32]struct{}
}

// NewPoolLiveCounter returns an empty counter.
func NewPoolLiveCounter() *PoolLiveCounter {
	return &PoolLiveCounter{seen: make(map[uint32]struct{})}
}

// Observe records the payload (if any) referenced by c.
func (lc *PoolLiveCounter) Observe(c Cell) {
	if c.tag() == cellTagPooled {
		lc.seen[c.poolIndex()] = struct{}{}
	}
}

// Live returns the number of distinct payloads observed.
func (lc *PoolLiveCounter) Live() int { return len(lc.seen) }
