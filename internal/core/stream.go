package core

import (
	"slices"
	"time"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/par"
)

// Whole-table construction. Every eager build except the paper-literal
// BuildTable oracle and the E14 unpruned ablation runs here: Figure 8
// tabulated member-major in word-batched 64-member blocks, with a
// bounded working set.
//
// Materializing the full classes × member-names membership matrix
// before filling a single entry costs |N|·|M|/8 bytes of transient
// bits — 1.25 GB at 100k classes × 100k member names, dwarfing the
// table being built. The build instead slices the member universe into
// chunks of whole 64-member blocks sized to a memory budget, and for
// each chunk (1) re-runs the lines [6]–[9] membership sweep restricted
// to the chunk's column window, reusing one chunk-wide matrix across
// all chunks, (2)
// extends each class's member list and result row (chunks ascend by
// member id, so the lists stay sorted), and (3) fills the chunk's
// blocks through fillBlock, with the block index offset into the chunk
// window. The recurrence Members[C] = M[C] ∪ ⋃ Members[X] is
// column-independent, so restricting it to a window is exact, and the
// total sweep cost across all chunks equals one monolithic sweep (each
// edge ors the same number of words either way) — the budget buys flat
// memory, not extra asymptotic work. Below giant scale the default
// budget holds every block, and the build is a single chunk.

// DefaultStreamBudget is the working-set budget a build uses when
// StreamOptions.MemoryBudget is unset: at 100k classes, one worker's
// 51.2 MB of scratch leaves room for 19 blocks of the chunk matrix.
const DefaultStreamBudget int64 = 64 << 20

// StreamOptions configures a whole-table build.
type StreamOptions struct {
	// Workers is the fill parallelism (≤ 0 means GOMAXPROCS). The
	// membership sweeps are serial either way — they are a small
	// fraction of build time.
	Workers int
	// MemoryBudget caps the transient working set in bytes: the chunk
	// matrix plus all worker scratch columns (≤ 0 means
	// DefaultStreamBudget). The chunk width is derived from it. The
	// floor is one 64-member block and one worker — a budget below
	// 520 bytes/class is exceeded rather than made infeasible, and
	// StreamStats.WorkingSetBytes reports the overrun.
	MemoryBudget int64
}

// StreamStats reports what a whole-table build did, per phase.
type StreamStats struct {
	Classes int // |N|
	Members int // |M| (member-name universe)
	Entries int // Σ|Members[C]| — table entries filled
	Blocks  int // ⌈|M|/64⌉ member blocks total

	Chunks      int // windows the member universe was sliced into
	ChunkBlocks int // blocks per full chunk (working-set width)
	Workers     int // fill workers used

	BudgetBytes     int64 // the configured (or default) budget
	WorkingSetBytes int64 // chunk matrix + worker scratch actually held

	SweepTime time.Duration // total membership-sweep (+ list append) time
	FillTime  time.Duration // total block-fill time
}

// BuildSemTable eagerly tabulates lookup[C,m] for every class C and
// m ∈ Members[C] under any backend, with up to workers goroutines
// (≤ 0 means GOMAXPROCS) and the default working-set budget: it is
// BuildSemTableStreamed without the stats.
func BuildSemTable(s Semantics, workers int) *Table {
	t, _ := BuildSemTableStreamed(s, StreamOptions{Workers: workers})
	return t
}

// BuildSemTableStreamed builds any backend's whole table chunk by
// chunk under opts' memory budget. Dominance kernels fill through the
// word-batched block walk, workers stealing blocks; every other
// backend must be a ClassResolver (C3, gxx), which resolves each
// class's chunk-window members in one call, workers stealing classes.
// A backend that is neither is a programming error, and panics. The
// Table is identical in shape, cell packing and read path for every
// backend — one packed Cell per entry over the backend's pool — and,
// whatever the budget and worker count, cell-for-cell the table
// BuildTable computes.
func BuildSemTableStreamed(s Semantics, opts StreamOptions) (*Table, StreamStats) {
	k, cr := resolverOf(s)
	g := s.Graph()
	n := g.NumClasses()
	t := &Table{
		g:       g,
		pool:    s.Pool(),
		members: make([][]chg.MemberID, n),
		results: make([][]Cell, n),
	}
	nb := (g.NumMemberNames() + blockBits - 1) / blockBits
	stats := StreamStats{Classes: n, Members: g.NumMemberNames(), Blocks: nb}
	if nb == 0 || n == 0 {
		return t, stats
	}

	workers := par.Workers(n, opts.Workers)
	budget := opts.MemoryBudget
	if budget <= 0 {
		budget = DefaultStreamBudget
	}
	// Bytes per chunk block: one word-column of the membership matrix
	// across all classes. Kernel scratch: 64 Cell columns per worker.
	// Prefer shrinking the worker count over busting the budget when
	// scratch alone would.
	perBlock := int64(8 * n)
	var perWorker int64
	if k != nil {
		workers = par.Workers(nb, opts.Workers)
		perWorker = int64(blockBits * 8 * n)
		for workers > 1 && int64(workers)*perWorker+perBlock > budget {
			workers--
		}
	}
	cb := int((budget - int64(workers)*perWorker) / perBlock)
	cb = min(max(cb, 1), nb)
	stats.ChunkBlocks = cb
	stats.Workers = workers
	stats.BudgetBytes = budget
	stats.WorkingSetBytes = int64(cb)*perBlock + int64(workers)*perWorker

	chunkBits := cb * blockBits
	mm := bitset.NewMatrixRect(n, chunkBits)
	var scs []*blockScratch
	if k != nil {
		scs = make([]*blockScratch, workers)
		for i := range scs {
			scs[i] = newBlockScratch(n)
		}
	}

	for b0 := 0; b0 < nb; b0 += cb {
		b1 := min(b0+cb, nb)
		firstID := chg.MemberID(b0 * blockBits)
		start := time.Now()

		// Window-restricted membership sweep. The final chunk may be
		// narrower than mm, but no member id reaches past it, so the
		// window's extra columns stay clear.
		sweepMembers(g, mm, firstID)
		// Extend the member lists and result rows with this window's
		// entries, each grown once to its exact new length. Windows
		// ascend by member id, so appending keeps each list sorted.
		for c := 0; c < n; c++ {
			row := mm.Row(c)
			cnt := row.Count()
			if cnt == 0 {
				continue
			}
			ms := slices.Grow(t.members[c], cnt)
			row.ForEach(func(i int) { ms = append(ms, firstID+chg.MemberID(i)) })
			t.members[c] = ms
			t.results[c] = append(t.results[c], make([]Cell, cnt)...)
			stats.Entries += cnt
		}
		stats.SweepTime += time.Since(start)

		// Fill the window's entries: in each class's lists they start at
		// the first member id ≥ firstID.
		start = time.Now()
		if k != nil {
			par.For(b1-b0, workers, func(w, i int) {
				k.fillBlock(t, mm, b0+i, scs[w], b0)
			})
		} else {
			par.For(n, workers, func(_, i int) {
				lo, _ := slices.BinarySearch(t.members[i], firstID)
				if ms := t.members[i][lo:]; len(ms) > 0 {
					cr.ResolveClass(chg.ClassID(i), ms, t.results[i][lo:])
				}
			})
		}
		stats.FillTime += time.Since(start)
		stats.Chunks++
	}
	return t, stats
}
