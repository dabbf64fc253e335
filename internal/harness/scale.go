package harness

// E19 measures the 100k-class scale jump: whole-table construction
// and bulk-edit serving sessions on hiergen.Giant hierarchies.
//
// Build side: the streaming builder (core.BuildSemTableStreamed under
// the default budget) against the monolithic batched build (the same
// builder with an unbounded budget). Both produce cell-for-cell identical
// tables; the axis is transient memory — the batched build
// materializes a |N|·|M|/8-byte membership matrix (quadratic when
// |M| tracks |N|), the streamed build holds a fixed
// budget-bounded working set, so its peak-heap bytes per class stay
// flat from 20k to 100k classes.
//
// Session side: 10k member edits against a warm served hierarchy.
// bulk-carry applies a batch of edits and republishes once — the
// workspace's edit log collapses the batch into one per-member
// invalidation cone (one multi-source walk down the derived lists) and
// one carried snapshot. serial-carry republishes after every edit — the
// pre-batching serving loop, measured on a bounded probe and
// normalized to ns/edit (10k full republishes of a 100k-class
// snapshot would take hours, which is the point).

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// scaleFamily is E19 and BENCH_scale.json: 20k, 50k and 100k
// classes, each built whole by both builders and served through a
// 10k-edit session by both carry strategies. The smoke config keeps
// the 20k-class hierarchy but serves only 100 edits, so the streamed
// build and bulk carry run at benchmark scale on every push within a
// CI worker's time.
func scaleFamily() Family {
	grid := []Config{
		scaleConfig("giant-20k", 20_000, 10_000, 500, 60, true),
		scaleConfig("giant-50k", 50_000, 10_000, 500, 40, true),
		scaleConfig("giant-100k", 100_000, 10_000, 500, 30, true),
	}
	return Family{
		Name:       "scale",
		Benchmark:  "BenchmarkScale",
		Unit:       "build strategies: ns_per_op is one whole-table build, peak_heap_bytes its transient heap above baseline; session strategies: ns_per_op is ns per edit of an edit→republish→probe-serve session (serial-carry is a bounded probe, normalized)",
		Experiment: "E19",
		Slow:       true,
		Configs:    grid,
		Smoke:      []Config{scaleConfig("giant-20k-smoke", 20_000, scaleSmokeEdits, scaleSmokeBatch, 0, false)},
		Shown:      grid[:2],
		Extras: func(r *Row, _ *chg.Graph) {
			for name, t := range r.Strategies {
				put(&r.PeakHeapBytes, name, t.PeakHeapBytes)
				if _, build := r.Stream[name]; build {
					put(&r.BytesPerClass, name, float64(t.PeakHeapBytes)/float64(r.Classes))
				}
			}
			bulk := r.Carry["bulk-carry"]
			r.CarriedEntries, r.InvalidatedConeSz = bulk.Carried, bulk.Invalidated
			r.BulkVsSerialEdit = r.speedup("serial-carry", "bulk-carry")
		},
		Print: printE19,
	}
}

// The smoke session: 100 edits republished in batches of 20.
const scaleSmokeEdits, scaleSmokeBatch = 100, 20

// scaleConfig is one class-count point. Its hierarchy, the build
// side, lets |M| track |N| (the paper's table regime); the session
// strategies serve a 512-name universe of the same class structure,
// because a served snapshot holds a dense |N|·|M| cell array and an
// edit session republishes many of them. bulk-carry applies edits per
// step in batches of batch; serial-carry, when serialProbe > 0,
// republishes after each of serialProbe edits — the pre-batching
// serving loop, a bounded probe normalized to ns/edit (10k full
// republishes of a 100k-class snapshot would take hours, which is the
// point). batchedBuild adds the monolithic-build baseline, whose
// quadratic matrices the smoke's memory ceiling excludes.
func scaleConfig(name string, classes, edits, batch, serialProbe int, batchedBuild bool) Config {
	ss := []Strategy{buildStrategy("streamed-build", core.StreamOptions{})}
	if batchedBuild {
		// The unbounded budget holds every block in one chunk: the
		// monolithic build, membership matrices materialized whole.
		ss = append(ss, buildStrategy("batched-build", core.StreamOptions{Workers: 1, MemoryBudget: math.MaxInt64}))
	}
	ss = append(ss, sessionStrategy("bulk-carry", classes, edits, batch))
	if serialProbe > 0 {
		ss = append(ss, sessionStrategy("serial-carry", classes, serialProbe, 1))
	}
	return Config{name, "giant", func() *chg.Graph { return hiergen.Giant(hiergen.GiantDefaults(classes)) }, ss}
}

// buildStrategy is one whole-table build per step under opts; it
// records the build's stream stats and the table's entry count.
func buildStrategy(name string, opts core.StreamOptions) Strategy {
	return Strategy{name, func(g *chg.Graph, _ string) (*Session, error) {
		var st core.StreamStats
		return &Session{
			Step: func() int {
				_, st = core.BuildSemTableStreamed(core.NewKernel(g), opts)
				return 1
			},
			Done: func(r *Row, _ Timing) {
				put(&r.Stream, name, st)
				r.Entries = st.Entries
			},
		}, nil
	}}
}

// sessionStrategy binds a workspace replay of the 512-name session
// hierarchy to an engine and warms a fixed slice of the served
// snapshot (the first 8 member columns across every class), so every
// republish has cells to carry. Each step applies edits member edits,
// republishing after every batch and serving a probe after each
// republish; it records the last step's republishes and carry.
func sessionStrategy(name string, classes, edits, batch int) Strategy {
	return Strategy{name, func(_ *chg.Graph, _ string) (*Session, error) {
		w, err := incremental.FromGraph(giant512(classes))
		if err != nil {
			return nil, err
		}
		b, snap, err := engine.New().BindWorkspace("scale", w)
		if err != nil {
			return nil, err
		}
		for c := 0; c < classes; c++ {
			for m := 0; m < 8; m++ {
				snap.Lookup(chg.ClassID(c), chg.MemberID(m))
			}
		}
		rng := rand.New(rand.NewSource(461))
		republishes := 0
		return &Session{
			Step: func() int {
				republishes = 0
				for applied := 0; applied < edits; applied += batch {
					for i := applied; i < min(applied+batch, edits); i++ {
						scaleEdit(rng, w, classes)
					}
					if snap, err = b.Sync(); err != nil {
						panic(err)
					}
					republishes++
					scaleProbeServe(snap)
				}
				return edits
			},
			Done: func(r *Row, _ Timing) {
				put(&r.Republishes, name, republishes)
				put(&r.Carry, name, snap.Carry())
			},
		}, nil
	}}
}

// giant512 is the session-side hierarchy: the build side's class
// structure over a 512-name member universe.
func giant512(classes int) *chg.Graph {
	cfg := hiergen.GiantDefaults(classes)
	cfg.MemberNames = 512
	return hiergen.Giant(cfg)
}

// scaleEdit applies one deterministic member toggle: a random class, a
// random hot member name (low Zipf ids, so cones are real hierarchies,
// not empty slivers).
func scaleEdit(rng *rand.Rand, w *incremental.Workspace, classes int) {
	c := chg.ClassID(rng.Intn(classes))
	name := fmt.Sprintf("m%d", rng.Intn(64))
	if w.DeclaresName(c, name) {
		if err := w.RemoveMember(c, name); err != nil {
			panic(err)
		}
	} else if err := w.AddMember(c, chg.Member{Name: name, Kind: chg.Method}); err != nil {
		panic(err)
	}
}

// scaleProbeServe requeries a bounded deterministic sample of the served
// snapshot after a republish — the "serve" half of a session step,
// scaled down from E15's full-table requery (a full requery of a
// 100k-class snapshot would dwarf the republish being measured).
func scaleProbeServe(snap *engine.Snapshot) {
	g := snap.Graph()
	n := g.NumClasses()
	stride := n / 512
	if stride < 1 {
		stride = 1
	}
	for c := 0; c < n; c += stride {
		for m := 0; m < 4; m++ {
			snap.Lookup(chg.ClassID(c), chg.MemberID(m))
		}
	}
}

func printE19(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Scale jump: hiergen.Giant hierarchies (fat interface layer, diamond")
	fmt.Fprintln(w, "towers, override chains, power-law members). Build side: streaming")
	fmt.Fprintln(w, "budget-bounded construction vs the monolithic batched build — same")
	fmt.Fprintln(w, "table, transient memory is the axis. Session side: 10k member edits")
	fmt.Fprintln(w, "served warm; bulk-carry republishes once per batch of edits (one")
	fmt.Fprintln(w, "union-of-cones carried snapshot), serial-carry once per edit (probed,")
	fmt.Fprintln(w, "normalized to ns/edit).")
	fmt.Fprintln(w)

	bt := newTable("hierarchy", "strategy", "|N|", "entries", "build", "peak heap", "bytes/class", "chunks")
	st := newTable("hierarchy", "strategy", "edits", "republishes", "ns/edit", "carried", "invalidated", "speedup")
	for _, r := range rows {
		for _, name := range []string{"streamed-build", "batched-build"} {
			s, ok := r.Stream[name]
			if !ok {
				continue
			}
			chunks := "-"
			if s.Chunks > 0 {
				chunks = fmt.Sprintf("%d×%d blocks", s.Chunks, s.ChunkBlocks)
			}
			bt.add(r.Name, name, r.Classes, r.Entries, r.per(name),
				formatBytes(r.PeakHeapBytes[name]), fmt.Sprintf("%.0fB", r.BytesPerClass[name]), chunks)
		}
		for _, name := range []string{"bulk-carry", "serial-carry"} {
			t, ok := r.Strategies[name]
			if !ok {
				continue
			}
			edits, speedup := fmt.Sprint(t.Iterations/t.Steps), "-"
			if name == "serial-carry" {
				edits += " (probe)"
				speedup = fmt.Sprintf("bulk %.1fx faster", r.BulkVsSerialEdit)
			}
			c := r.Carry[name]
			st.add(r.Name, name, edits, r.Republishes[name],
				fmt.Sprintf("%.2fms", float64(t.NsPerOp)/1e6), c.Carried, c.Invalidated, speedup)
		}
	}
	fmt.Fprintln(w, "whole-table build:")
	bt.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "10k-edit serving session (512-name universe; serial probed and normalized):")
	st.write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "→ the streamed build's peak transient heap per class stays flat as |N| grows")
	fmt.Fprintln(w, "  while the batched build's grows with |N| (its membership matrices are")
	fmt.Fprintln(w, "  |N|·|M| bits, |M| tracking |N|). The bulk session's win is structural:")
	fmt.Fprintln(w, "  one carried republish per batch instead of per edit, with the batch's")
	fmt.Fprintln(w, "  cones collapsed per member by bitset union / multi-source BFS. The 100k")
	fmt.Fprintln(w, "  row of this family is recorded in BENCH_scale.json (make bench-json).")
}
