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
	"time"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// DevirtConfig is one point of the devirt family, shared by E20,
// BenchmarkDevirt, cmd/benchjson -devirt-o, and the CI smoke.
type DevirtConfig struct {
	Name        string
	Classes     int
	MemberNames int
	Sites       int   // call-site stream length
	SingleProbe int   // bounded sites for the single-call strategy
	Seed        int64 // call-site stream seed
}

// Make builds the hierarchy: the scale family's Giant shape with the
// session-side 512-name universe.
func (c DevirtConfig) Make() *chg.Graph {
	cfg := hiergen.GiantDefaults(c.Classes)
	cfg.MemberNames = c.MemberNames
	return hiergen.Giant(cfg)
}

// MakeSites generates the config's call-site stream.
func (c DevirtConfig) MakeSites(g *chg.Graph) []devirt.Site {
	raw := hiergen.CallSites(g, c.Sites, c.Seed)
	sites := make([]devirt.Site, len(raw))
	for i, s := range raw {
		sites[i] = devirt.Site{Class: s.Class, Member: s.Member}
	}
	return sites
}

// DevirtConfigs returns the benchmark family: the E19 scale points
// with multi-million-site streams.
func DevirtConfigs() []DevirtConfig {
	return []DevirtConfig{
		{Name: "giant-20k", Classes: 20_000, MemberNames: 512, Sites: 2_000_000, SingleProbe: 20_000, Seed: 2026},
		{Name: "giant-100k", Classes: 100_000, MemberNames: 512, Sites: 4_000_000, SingleProbe: 10_000, Seed: 2026},
	}
}

// DevirtSmokeConfig returns the CI-sized configuration.
func DevirtSmokeConfig() DevirtConfig {
	return DevirtConfig{Name: "giant-20k-smoke", Classes: 20_000, MemberNames: 512, Sites: 200_000, SingleProbe: 5_000, Seed: 2026}
}

// DevirtStats summarizes a resolved stream per site (not per unique
// pair): Monomorphic + Polymorphic + Unresolved == Sites.
type DevirtStats struct {
	Sites       int
	UniqueSites int
	Monomorphic int // exactly one possible target
	Polymorphic int // two or more
	Unresolved  int // no legal target (undefined/ambiguous everywhere)
}

// DevirtMeasurement is one strategy's timing.
type DevirtMeasurement struct {
	Strategy    string
	Sites       int // sites actually timed (the probe is bounded)
	Total       time.Duration
	NsPerSite   int64
	SitesPerSec float64
	Probed      bool
}

// DevirtSession holds one warm serving setup: hierarchy, snapshot,
// call-site stream, and resolvers for each strategy.
type DevirtSession struct {
	Graph *chg.Graph
	Snap  *engine.Snapshot
	Sites []devirt.Site

	serial   *devirt.Resolver
	parallel *devirt.Resolver

	res []devirt.Resolution // reusable result buffer

	// single-call scratch (cone walk + distinct-target set)
	visited *bitset.Set
	queue   []chg.ClassID
	targets map[chg.ClassID]struct{}
}

// NewDevirtSession builds the session and warms the snapshot with one
// untimed batch pass, so every strategy measures the steady serving
// state (warm cells) rather than first-touch fill cost.
func NewDevirtSession(cfg DevirtConfig) (*DevirtSession, error) {
	g := cfg.Make()
	snap := engine.NewSnapshot(g)
	s := &DevirtSession{
		Graph:   g,
		Snap:    snap,
		Sites:   cfg.MakeSites(g),
		visited: bitset.New(g.NumClasses()),
		targets: map[chg.ClassID]struct{}{},
	}
	var err error
	if s.serial, err = devirt.New(snap, core.SemDominance); err != nil {
		return nil, err
	}
	s.serial.Workers = 1
	if s.parallel, err = devirt.New(snap, core.SemDominance); err != nil {
		return nil, err
	}
	s.parallel.Workers = 0 // auto: GOMAXPROCS-bounded work stealing
	s.res = s.serial.ResolveBatch(s.Sites, s.res[:0])
	return s, nil
}

// Stats resolves the whole stream (warm, deduplicated) and tallies it.
func (s *DevirtSession) Stats() DevirtStats {
	s.res = s.serial.ResolveBatch(s.Sites, s.res[:0])
	st := DevirtStats{Sites: len(s.Sites)}
	seen := map[devirt.Site]struct{}{}
	for i, r := range s.res {
		seen[s.Sites[i]] = struct{}{}
		switch {
		case len(r.Targets) == 1:
			st.Monomorphic++
		case len(r.Targets) > 1:
			st.Polymorphic++
		default:
			st.Unresolved++
		}
	}
	st.UniqueSites = len(seen)
	return st
}

// DrainSingle resolves the first n sites the pre-batch way: per site,
// walk the static type's descendant cone and issue one
// Snapshot.Lookup per receiver — no dedup across sites, no sharing
// of cones between sites. This is the client shape the batch API
// replaces. Returns a checksum so the work cannot be optimized away.
func (s *DevirtSession) DrainSingle(n int) int {
	if n > len(s.Sites) {
		n = len(s.Sites)
	}
	sum := 0
	for _, site := range s.Sites[:n] {
		cone := 1
		if r := s.Snap.Lookup(site.Class, site.Member); r.Found() {
			s.targets[r.Class()] = struct{}{}
		}
		s.queue = s.Graph.EachDescendant(site.Class, s.visited, s.queue, func(d chg.ClassID) {
			cone++
			if r := s.Snap.Lookup(d, site.Member); r.Found() {
				s.targets[r.Class()] = struct{}{}
			}
		})
		sum += len(s.targets) + cone
		for t := range s.targets {
			delete(s.targets, t)
		}
	}
	return sum
}

// DrainBatched resolves the full stream through ResolveBatch, serial
// or with auto workers.
func (s *DevirtSession) DrainBatched(parallel bool) int {
	r := s.serial
	if parallel {
		r = s.parallel
	}
	s.res = r.ResolveBatch(s.Sites, s.res[:0])
	sum := 0
	for i := range s.res {
		sum += len(s.res[i].Targets)
	}
	return sum
}

// timeDevirt runs fn repeatedly until minDur of wall time has
// accrued, returning the per-run mean.
func timeDevirt(minDur time.Duration, fn func()) (time.Duration, int) {
	start := time.Now()
	runs := 0
	for {
		fn()
		runs++
		if d := time.Since(start); d >= minDur {
			return d / time.Duration(runs), runs
		}
	}
}

// MeasureDevirt times every strategy of one config on a shared warm
// session, returning the measurements (single-call, batched,
// parallel-batched) and the stream's resolution stats.
func MeasureDevirt(cfg DevirtConfig) ([]DevirtMeasurement, DevirtStats, error) {
	s, err := NewDevirtSession(cfg)
	if err != nil {
		return nil, DevirtStats{}, err
	}
	stats := s.Stats()

	const minDur = 300 * time.Millisecond
	probe := cfg.SingleProbe
	if probe > len(s.Sites) {
		probe = len(s.Sites)
	}
	per, _ := timeDevirt(minDur, func() { s.DrainSingle(probe) })
	out := []DevirtMeasurement{{
		Strategy:    "single-call",
		Sites:       probe,
		Total:       per,
		NsPerSite:   per.Nanoseconds() / int64(probe),
		SitesPerSec: float64(probe) / per.Seconds(),
		Probed:      probe < len(s.Sites),
	}}
	for _, strat := range []struct {
		name     string
		parallel bool
	}{{"batched", false}, {"parallel-batched", true}} {
		per, _ := timeDevirt(minDur, func() { s.DrainBatched(strat.parallel) })
		out = append(out, DevirtMeasurement{
			Strategy:    strat.name,
			Sites:       len(s.Sites),
			Total:       per,
			NsPerSite:   per.Nanoseconds() / int64(len(s.Sites)),
			SitesPerSec: float64(len(s.Sites)) / per.Seconds(),
		})
	}
	return out, stats, nil
}

// RunE20 prints the devirtualization workload comparison on a bounded
// 20k-class stream; the full family including the 100k point is
// recorded in BENCH_devirt.json by `make bench-json`.
func RunE20(w io.Writer) error {
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

	cfg := DevirtConfig{Name: "giant-20k", Classes: 20_000, MemberNames: 512,
		Sites: 500_000, SingleProbe: 10_000, Seed: 2026}
	ms, stats, err := MeasureDevirt(cfg)
	if err != nil {
		return err
	}

	t := newTable("strategy", "sites", "ns/site", "sites/sec", "vs single-call")
	var baseNs int64
	for _, m := range ms {
		if m.Strategy == "single-call" {
			baseNs = m.NsPerSite
		}
	}
	for _, m := range ms {
		sites := fmt.Sprint(m.Sites)
		if m.Probed {
			sites += " (probe)"
		}
		rel := "1.0x"
		if m.NsPerSite > 0 && m.Strategy != "single-call" {
			rel = fmt.Sprintf("%.1fx", float64(baseNs)/float64(m.NsPerSite))
		}
		t.add(m.Strategy, sites, m.NsPerSite, fmt.Sprintf("%.2fM", m.SitesPerSec/1e6), rel)
	}
	t.write(w)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "stream: %d sites, %d unique (type, member) pairs\n", stats.Sites, stats.UniqueSites)
	fmt.Fprintf(w, "  monomorphic %d (%.1f%%)  polymorphic %d  unresolved %d\n",
		stats.Monomorphic, 100*float64(stats.Monomorphic)/float64(stats.Sites),
		stats.Polymorphic, stats.Unresolved)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "→ batching wins twice: duplicate sites collapse to one resolution")
	fmt.Fprintln(w, "  each, and distinct sites on one member share their cones, so a class")
	fmt.Fprintln(w, "  under many hot roots is looked up once per batch, not once per root.")
	fmt.Fprintln(w, "  The monomorphic fraction is the devirtualization payoff: those")
	fmt.Fprintln(w, "  calls can become direct calls.")
	return nil
}
