package harness

// E20 measures the devirtualization query workload: draining a
// compiler-shaped stream of virtual call sites through CHA resolution
// against a warm served snapshot.
//
// Three strategies over the same Zipf call-site stream
// (hiergen.CallSites over a Giant hierarchy):
//
//   - single-call: the pre-batch client shape — per site, walk the
//     static type's descendant cone and issue one Snapshot.Lookup per
//     receiver, collecting distinct targets. Probed on a bounded site
//     prefix and normalized to ns/site (the point of the probe: at
//     Zipf-hot cones this is thousands of lookups per site).
//   - batched: devirt.Resolver.ResolveBatch serial — sites dedup to
//     unique (type, member) pairs, and each member's target sets are
//     computed bottom-up over the union of its roots' cones, one
//     lookup per class of that union.
//   - parallel-batched: the same with auto workers (work-stealing
//     over member runs). On a single-core host this equals batched;
//     the recorded ratio is honest, not simulated.

import (
	"fmt"
	"io"
	"runtime"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// devirtFamily is E20 and BENCH_devirt.json: the E19 scale points
// with multi-million-site streams. A step drains the strategy's sites
// once, so ns_per_op is ns per call site.
func devirtFamily() Family {
	return Family{
		Name:       "devirt",
		Benchmark:  "BenchmarkDevirt",
		Unit:       "ns_per_op is wall time per call site drained from a Zipf stream against a warm snapshot (single-call is a bounded probe, normalized); iterations counts the sites timed",
		Experiment: "E20",
		Slow:       true,
		Configs: []Config{
			devirtConfig("giant-20k", 20_000, 2_000_000, 20_000),
			devirtConfig("giant-100k", 100_000, 4_000_000, 10_000),
		},
		Smoke: []Config{devirtConfig("giant-20k-smoke", 20_000, 200_000, 5_000)},
		Shown: []Config{devirtConfig("giant-20k", 20_000, 500_000, 10_000)},
		Extras: func(r *Row, _ *chg.Graph) {
			for name, t := range r.Strategies {
				put(&r.SitesPerSec, name, 1e9/float64(max(t.NsPerOp, 1)))
			}
			r.BatchedVsSingle = r.speedup("single-call", "batched")
			r.ParallelVsBatch = r.speedup("batched", "parallel-batched")
		},
		Print: printE20,
	}
}

// devirtConfig is a Giant hierarchy with the scale family's 512-name
// session universe and a seeded stream of sites call sites; the
// single-call strategy drains only the first probe of them, and the
// batched strategy records the stream's census.
func devirtConfig(name string, classes, sites, probe int) Config {
	setup := func(workers int, session func(s *devirtSession) *Session) func(*chg.Graph, string) (*Session, error) {
		return func(g *chg.Graph, _ string) (*Session, error) {
			s, err := newDevirtSession(g, sites, workers)
			if err != nil {
				return nil, err
			}
			return session(s), nil
		}
	}
	return Config{name, "giant", func() *chg.Graph { return giant512(classes) }, []Strategy{
		{"single-call", setup(1, func(s *devirtSession) *Session {
			return &Session{Step: func() int { return s.drainSingle(probe) }}
		})},
		{"batched", setup(1, func(s *devirtSession) *Session {
			return &Session{Step: s.drainBatched, Done: s.census}
		})},
		{"parallel-batched", setup(0, func(s *devirtSession) *Session {
			return &Session{Step: s.drainBatched}
		})},
	}}
}

// devirtSession is one warm serving setup: snapshot, call-site
// stream, a resolver, and the scratch each drain reuses.
type devirtSession struct {
	g     *chg.Graph
	snap  *engine.Snapshot
	sites []devirt.Site
	r     *devirt.Resolver
	res   []devirt.Resolution

	// single-call scratch (cone walk + distinct-target set)
	visited *bitset.Set
	queue   []chg.ClassID
	targets map[chg.ClassID]struct{}
}

// newDevirtSession builds the session with a resolver running workers
// goroutines (0: auto, GOMAXPROCS-bounded work stealing) and warms the
// snapshot with one untimed batch pass, so every strategy measures the
// steady serving state (warm cells) rather than first-touch fill cost.
func newDevirtSession(g *chg.Graph, sites, workers int) (*devirtSession, error) {
	s := &devirtSession{
		g:       g,
		snap:    engine.NewSnapshot(g),
		visited: bitset.New(g.NumClasses()),
		targets: map[chg.ClassID]struct{}{},
	}
	for _, cs := range hiergen.CallSites(g, sites, 2026) {
		s.sites = append(s.sites, devirt.Site{Class: cs.Class, Member: cs.Member})
	}
	var err error
	if s.r, err = devirt.New(s.snap, core.SemDominance); err != nil {
		return nil, err
	}
	s.r.Workers = workers
	s.drainBatched()
	return s, nil
}

// drainSingle resolves the first n sites the pre-batch way: per site,
// walk the static type's descendant cone and issue one
// Snapshot.Lookup per receiver — no dedup across sites, no sharing
// of cones between sites. This is the client shape the batch API
// replaces. It returns the sites drained.
func (s *devirtSession) drainSingle(n int) int {
	probe := s.sites[:min(n, len(s.sites))]
	for _, site := range probe {
		if r := s.snap.Lookup(site.Class, site.Member); r.Found() {
			s.targets[r.Class()] = struct{}{}
		}
		s.queue = s.g.EachDescendant(site.Class, s.visited, s.queue, func(d chg.ClassID) {
			if r := s.snap.Lookup(d, site.Member); r.Found() {
				s.targets[r.Class()] = struct{}{}
			}
		})
		clear(s.targets)
	}
	return len(probe)
}

// drainBatched resolves the whole stream through ResolveBatch.
func (s *devirtSession) drainBatched() int {
	s.res = s.r.ResolveBatch(s.sites, s.res[:0])
	return len(s.sites)
}

// census tallies the last drain per site (not per unique pair):
// monomorphic + polymorphic + unresolved == call sites.
func (s *devirtSession) census(r *Row, _ Timing) {
	seen := map[devirt.Site]struct{}{}
	for i, res := range s.res {
		seen[s.sites[i]] = struct{}{}
		switch {
		case len(res.Targets) == 1:
			r.MonomorphicSites++
		case len(res.Targets) > 1:
			r.PolymorphicSites++
		default:
			r.UnresolvedSites++
		}
	}
	r.CallSites, r.UniqueSites = len(s.sites), len(seen)
}

func printE20(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Devirtualization workload: CHA target resolution for a Zipf stream of")
	fmt.Fprintln(w, "virtual call sites over a Giant hierarchy, served from one warm")
	fmt.Fprintln(w, "snapshot. single-call walks each site's descendant cone with")
	fmt.Fprintln(w, "one Lookup per receiver (probed, normalized); batched dedups the")
	fmt.Fprintln(w, "stream to unique (type, member) pairs and computes each member's")
	fmt.Fprintln(w, "target sets bottom-up, targets(c) = {lookup(c).L} ∪ targets of c's")
	fmt.Fprintln(w, "direct derived classes, looking each class of the member's cone")
	fmt.Fprintln(w, "union up once; parallel-batched adds work-stealing workers over")
	fmt.Fprintf(w, "member runs (GOMAXPROCS here: %d).\n", runtime.GOMAXPROCS(0))
	fmt.Fprintln(w)

	for _, r := range rows {
		t := newTable("strategy", "sites", "ns/site", "sites/sec", "vs single-call")
		for _, name := range []string{"single-call", "batched", "parallel-batched"} {
			m := r.Strategies[name]
			sites, rel := fmt.Sprint(m.Iterations/m.Steps), "1.0x"
			if name == "single-call" {
				sites += " (probe)"
			} else {
				rel = fmt.Sprintf("%.1fx", r.speedup("single-call", name))
			}
			t.add(name, sites, m.NsPerOp, fmt.Sprintf("%.2fM", r.SitesPerSec[name]/1e6), rel)
		}
		t.write(w)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "stream: %d sites, %d unique (type, member) pairs\n", r.CallSites, r.UniqueSites)
		fmt.Fprintf(w, "  monomorphic %d (%.1f%%)  polymorphic %d  unresolved %d\n",
			r.MonomorphicSites, 100*float64(r.MonomorphicSites)/float64(r.CallSites),
			r.PolymorphicSites, r.UnresolvedSites)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "→ batching wins twice: duplicate sites collapse to one resolution")
	fmt.Fprintln(w, "  each, and distinct sites on one member share their cones, so a class")
	fmt.Fprintln(w, "  under many hot roots is looked up once per batch, not once per root.")
	fmt.Fprintln(w, "  The monomorphic fraction is the devirtualization payoff: those")
	fmt.Fprintln(w, "  calls can become direct calls.")
}
