package engine

// Per-backend access. A snapshot built WithSemantics serves the same
// hierarchy under several resolution backends at once: one cache
// column per backend (see column), dominance first, all over the
// snapshot's one shared payload pool. Lookup, Table and CachedEntries
// are the dominance column's LookupSem, TableSem and SemCachedEntries.

import (
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// Semantics returns every backend this snapshot serves, dominance
// first, then the extra columns in the order WithSemantics listed
// them.
func (s *Snapshot) Semantics() []core.SemanticsID {
	ids := make([]core.SemanticsID, len(s.cols))
	for i, col := range s.cols {
		ids[i] = col.id
	}
	return ids
}

// column returns the column serving id, or nil.
func (s *Snapshot) column(id core.SemanticsID) *column {
	for _, col := range s.cols {
		if col.id == id {
			return col
		}
	}
	return nil
}

// LookupSem resolves member m in the context of class c under the
// named backend, with the same concurrency contract as Lookup (which
// it is, for the dominance id). ok is false when the snapshot was not
// built to serve id.
func (s *Snapshot) LookupSem(id core.SemanticsID, c chg.ClassID, m chg.MemberID) (core.Result, bool) {
	col := s.column(id)
	if col == nil {
		return core.Result{}, false
	}
	return s.lookup(col, c, m), true
}

// TableSem returns the named backend's eagerly tabulated lookup
// function, building it on first use (Table is the dominance id's).
// Every backend's table packs cells over the snapshot's one shared
// pool. ok is false when the snapshot does not serve id.
func (s *Snapshot) TableSem(id core.SemanticsID) (*core.Table, bool) {
	col := s.column(id)
	if col == nil {
		return nil, false
	}
	return col.eagerTable(), true
}

// SemCachedEntries reports how many lazy-cache cells the named
// backend's column currently holds (CachedEntries for the dominance
// id). For tests and observability.
func (s *Snapshot) SemCachedEntries(id core.SemanticsID) int {
	col := s.column(id)
	if col == nil {
		return 0
	}
	return col.filled()
}

// eagerTable builds the column's whole table once, over all available
// workers, and returns it.
func (col *column) eagerTable() *core.Table {
	col.tableOnce.Do(func() { col.table = core.BuildSemTable(col.sem, 0) })
	return col.table
}

// filled counts the column's published cells. A run whose view spans
// its store's claimed words reads the store's count, which fills,
// WarmAll's swaps, carry's copies and clears, and an adopted plane's
// check keep exact for the whole array; only a predecessor's view,
// shorter than a successor extended the array to, is scanned.
func (col *column) filled() int {
	n := 0
	for _, r := range col.runs {
		// As in share: claimed only grows, so finding it at
		// len(r.words) after loading the count means the count covers
		// exactly r's words.
		f := r.st.filled.Load()
		if r.st.claimed.Load() == int64(len(r.words)) {
			n += int(f)
			continue
		}
		for c := range r.words {
			if atomic.LoadUint64(&r.words[c]) != 0 {
				n++
			}
		}
	}
	return n
}
