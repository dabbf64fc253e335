package harness

// E18 measures the warm-start path: how fast a fully warmed snapshot
// — every cell of every backend column filled — comes back to serving
// after a process restart. Three strategies compete on the E15
// hierarchy shapes:
//
//   - mmap-load:    image.OpenFile — map the snapshot image, verify
//     its content hash, decode the (small) graph section, check every
//     payload and cell word, and alias the pool arenas and cell columns
//     out of the mapped bytes. No per-cell deserialization; load work
//     is O(header + hash + cell check) regardless of how many cells are
//     warm;
//   - cold-rebuild: engine.NewSnapshot + WarmAll — recompute the
//     whole table from the in-memory graph, the cost the image
//     replaces (and a lower bound on any restart that re-analyzes
//     source);
//   - gob-decode:   the conventional serialization alternative — the
//     same graph (in chg's binary form), columns and pool arenas
//     through encoding/gob, which walks and re-allocates every cell and
//     payload on decode.
//
// Alongside wall-clock per restart it reports each strategy's
// artifact size, making the trade explicit: the image is the largest
// artifact and by far the cheapest to open.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/image"
)

// imageFamily is E18 and BENCH_image.json, on the E15 serving shapes
// so the restart numbers compose with the edit→serve ones. Each step
// is a full restart round: open the persisted artifact (or recompute,
// for the rebuild baseline), serve a probe set of warm lookups, and
// release. Setup writes each strategy's artifact into dir and records
// its size (none for cold-rebuild).
func imageFamily() Family {
	grid := servingConfigs([]Strategy{
		{"mmap-load", setupMmapLoad},
		{"cold-rebuild", setupColdWarmAll},
		{"gob-decode", setupGobDecode},
	})
	return Family{
		Name:       "image",
		Benchmark:  "BenchmarkImageLoad",
		Unit:       "ns_per_op is wall time per warm start — restore a fully warmed three-backend snapshot and serve a probe of warm lookups; artifact_bytes is what each strategy persisted",
		Experiment: "E18",
		Configs:    grid,
		Smoke:      grid,
		Extras: func(r *Row, _ *chg.Graph) {
			r.MmapSpeedupCold = r.speedup("cold-rebuild", "mmap-load")
			r.MmapSpeedupGob = r.speedup("gob-decode", "mmap-load")
		},
		Print: printE18,
	}
}

// imageExtraBackends are the extra columns every strategy warms and
// restores beside dominance — the full backend set, so a restart
// round covers the whole multi-semantics cache.
var imageExtraBackends = []core.SemanticsID{core.SemC3, core.SemGxx}

// artifactSize records a strategy's persisted artifact size.
func artifactSize(strategy string, n int64) func(r *Row, _ Timing) {
	return func(r *Row, _ Timing) { put(&r.ArtifactBytes, strategy, n) }
}

func imageOpts() []core.Option {
	return []core.Option{core.WithSemantics(imageExtraBackends...)}
}

// probeServe answers a spread of warm lookups under every backend —
// the "start serving" half of a restart round, deliberately small so
// the measurement is dominated by the load, not the serve.
func probeServe(s *engine.Snapshot) {
	g := s.Graph()
	n, m := g.NumClasses(), g.NumMemberNames()
	if n == 0 || m == 0 {
		return
	}
	for _, id := range s.Semantics() {
		for i := 0; i < 8; i++ {
			c := chg.ClassID(i * (n - 1) / 8)
			mm := chg.MemberID((i * 37) % m)
			s.LookupSem(id, c, mm)
		}
	}
}

// warmImageSnapshot returns the fully warmed three-backend snapshot
// every strategy restores.
func warmImageSnapshot(g *chg.Graph) *engine.Snapshot {
	snap := engine.NewSnapshot(g, imageOpts()...)
	snap.WarmAll()
	return snap
}

func setupMmapLoad(g *chg.Graph, dir string) (*Session, error) {
	path := filepath.Join(dir, "snap.img")
	if err := image.WriteFile(path, warmImageSnapshot(g)); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return settle(&Session{
		Step: func() int {
			im, err := image.OpenFile(path)
			if err != nil {
				panic(err)
			}
			probeServe(im.Snapshot())
			if err := im.Close(); err != nil {
				panic(err)
			}
			return 1
		},
		Done: artifactSize("mmap-load", st.Size()),
	})
}

func setupColdWarmAll(g *chg.Graph, _ string) (*Session, error) {
	return settle(&Session{Step: func() int {
		probeServe(warmImageSnapshot(g))
		return 1
	}})
}

// gobSnapshot is the conventional-serialization wire form the
// gob-decode baseline round-trips: identical information to the
// image (graph, backends, flags, cell plane, pool arenas), paid for
// cell by cell at decode time. Graph is chg's binary form, which keeps
// the class and member ids the cell plane is indexed by.
type gobSnapshot struct {
	Graph      []byte
	Backends   []core.SemanticsID
	TrackPaths bool
	StaticRule bool
	Cells      []uint64
	PoolRecs   []int32
	PoolIDs    []chg.ClassID
	PoolDefs   []core.Def
}

// writeGob saves snap to path in the gob-decode baseline's form and
// returns the artifact's size.
func writeGob(snap *engine.Snapshot, path string) (int, error) {
	g := snap.Graph()
	pi := snap.Pool().Image()
	gb, err := g.MarshalBinary()
	if err != nil {
		return 0, err
	}
	wire := gobSnapshot{
		Graph:    gb,
		Backends: snap.Semantics(),
		Cells:    make([]uint64, len(snap.Semantics())*g.NumClasses()*g.NumMemberNames()),
		PoolRecs: pi.Recs, PoolIDs: pi.IDs, PoolDefs: pi.Defs,
	}
	snap.CopyCells(wire.Cells, pi)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return 0, err
	}
	return buf.Len(), os.WriteFile(path, buf.Bytes(), 0o644)
}

// readGob restores a snapshot from writeGob's artifact, decoding every
// cell and payload.
func readGob(path string) (*engine.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var w gobSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	g, err := chg.UnmarshalBinary(w.Graph)
	if err != nil {
		return nil, err
	}
	pool, err := core.PoolFromImage(core.PoolImage{Recs: w.PoolRecs, IDs: w.PoolIDs, Defs: w.PoolDefs}, g.NumClasses())
	if err != nil {
		return nil, err
	}
	return engine.NewSnapshotFromParts(g, pool, w.Backends, w.Cells, w.TrackPaths, w.StaticRule)
}

func setupGobDecode(g *chg.Graph, dir string) (*Session, error) {
	path := filepath.Join(dir, "snap.gob")
	size, err := writeGob(warmImageSnapshot(g), path)
	if err != nil {
		return nil, err
	}
	return settle(&Session{
		Done: artifactSize("gob-decode", int64(size)),
		Step: func() int {
			s, err := readGob(path)
			if err != nil {
				panic(err)
			}
			probeServe(s)
			return 1
		},
	})
}

func printE18(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Warm start from a snapshot image: every strategy restores a fully")
	fmt.Fprintln(w, "warmed multi-backend cache (dominance, c3, gxx) and serves a probe of")
	fmt.Fprintln(w, "warm lookups. mmap-load maps the relocatable image and serves straight")
	fmt.Fprintln(w, "from the mapped bytes (each cell checked, none decoded); cold-rebuild")
	fmt.Fprintln(w, "recomputes the table; gob-decode re-allocates it through conventional")
	fmt.Fprintln(w, "serialization.")
	fmt.Fprintln(w)

	t := newTable("hierarchy", "|N|", "|M|", "image KiB", "mmap-load", "cold-rebuild", "gob-decode", "vs cold", "vs gob")
	for _, r := range rows {
		t.add(r.Name, r.Classes, r.MemberNames, r.ArtifactBytes["mmap-load"]/1024,
			r.per("mmap-load"), r.per("cold-rebuild"), r.per("gob-decode"),
			fmt.Sprintf("%.1fx", r.MmapSpeedupCold), fmt.Sprintf("%.1fx", r.MmapSpeedupGob))
	}
	t.write(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "mmap-load cost is O(header + content hash + cell check) in the file")
	fmt.Fprintln(w, "size and independent of how many cells are warm; both baselines pay")
	fmt.Fprintln(w, "per cell.")
}
