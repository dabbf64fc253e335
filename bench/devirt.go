package main

import (
	"runtime"
	"slices"
	"time"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/devirt"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
)

// runDevirt is compiler class-hierarchy analysis, one translation unit
// per request: each TU's call sites are resolved to their possible
// override targets in one ResolveBatch call. It is the only workload
// dominated by descendant-cone walks and sorted batch lookups. The
// snapshot starts cold, as each build's does, so early TUs pay the
// fills.
func runDevirt(env *runEnv) (*result, error) {
	sz, tr := env.sz, env.tr
	g := hiergen.Giant(giantConfig(sz.classes))
	calls := hiergen.CallSites(g, sz.devirtTUs*sz.devirtSites, env.seed+5)
	fp := newInputHash()
	if err := fp.graph(g); err != nil {
		return nil, err
	}
	fp.sites(calls)
	sites := make([]devirt.Site, len(calls))
	for i, c := range calls {
		sites[i] = devirt.Site{Class: c.Class, Member: c.Member}
	}
	oracle := newConeOracle(g)

	r := &result{Fingerprint: fp.sum(), Metrics: map[string]float64{}}
	var load loadStats
	var res *devirt.Resolver
	var pairs, fast, mono, cone int
	var pause uint64
	var out []devirt.Resolution
	for pass := range sz.devirtPasses {
		for range tinySetupReps {
			res = nil
			err := load.setup(func() (err error) {
				sp := tr.begin("engine.new_snapshot")
				snap := engine.NewSnapshot(g)
				tr.end(sp)
				sp = tr.begin("devirt.new")
				res, err = devirt.New(snap, core.SemDominance)
				tr.end(sp)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		pauseBefore := gcPauseNs()
		for tu := range sz.devirtTUs {
			batch := sites[tu*sz.devirtSites : (tu+1)*sz.devirtSites]
			req := tr.beginRequest(tu, "devirt.tu")
			start := time.Now()
			sp := tr.begin("devirt.resolve_batch")
			out = res.ResolveBatch(batch, out[:0])
			tr.end(sp)
			load.request(time.Since(start), len(batch))
			tr.endRequest(req)
			r.Attempted++
			if pass > 0 {
				continue
			}
			unique := uniqueResolutions(out)
			for _, u := range unique {
				pairs++
				if u.FastPath {
					fast++
				} else {
					cone += u.Cone
				}
				if u.Monomorphic {
					mono++
				}
			}
			if tu%devirtCheckEvery == 0 {
				r.Checked++
				if !oracle.matches(unique) {
					r.Mismatches++
					r.Failed++
				}
			}
		}
		load.endPass()
		if pass == 0 {
			pause = gcPauseNs() - pauseBefore
		}
	}
	load.fill(r, liveHeap())
	runtime.KeepAlive(res)

	if tr != nil {
		s := summarize(tr.spans)
		r.Layers = map[string]float64{
			"devirt.new.ms":            s.p50ms("devirt.new"),
			"devirt.resolve_batch.ms":  s.p50ms("devirt.resolve_batch"),
			"devirt.cone_receivers":    float64(cone) / float64(sz.devirtTUs),
			"devirt.unique_ratio":      float64(pairs) / float64(len(sites)),
			"devirt.fast_path_ratio":   float64(fast) / float64(pairs),
			"devirt.monomorphic_ratio": float64(mono) / float64(pairs),
			"runtime.gc_pause_ms":      ms(int64(pause)),
		}
	}
	return r, nil
}

// uniqueResolutions returns one resolution per distinct (class, member)
// pair of a batch, ordered by member, then class.
func uniqueResolutions(out []devirt.Resolution) []devirt.Resolution {
	u := slices.Clone(out)
	slices.SortFunc(u, func(a, b devirt.Resolution) int {
		if a.Member != b.Member {
			return int(a.Member) - int(b.Member)
		}
		return int(a.Root) - int(b.Root)
	})
	return slices.CompactFunc(u, func(a, b devirt.Resolution) bool {
		return a.Member == b.Member && a.Root == b.Root
	})
}

// coneOracle recomputes CHA answers by brute force: walk the root's
// descendant cone and look the member up at every class, on a cold
// snapshot of its own.
type coneOracle struct {
	g       *chg.Graph
	snap    *engine.Snapshot
	visited *bitset.Set
	queue   []chg.ClassID
}

func newConeOracle(g *chg.Graph) *coneOracle {
	return &coneOracle{g: g, snap: engine.NewSnapshot(g), visited: bitset.New(g.NumClasses())}
}

func (o *coneOracle) matches(rs []devirt.Resolution) bool {
	for _, r := range rs {
		targets := map[chg.ClassID]bool{}
		n := 0
		visit := func(d chg.ClassID) {
			n++
			if lr := o.snap.Lookup(d, r.Member); lr.Found() {
				targets[lr.Class()] = true
			}
		}
		visit(r.Root)
		o.queue = o.g.EachDescendant(r.Root, o.visited, o.queue, visit)
		want := make([]chg.ClassID, 0, len(targets))
		for t := range targets {
			want = append(want, t)
		}
		slices.Sort(want)
		if n != r.Cone || !slices.Equal(want, r.Targets) || r.Monomorphic != (len(want) == 1) {
			return false
		}
	}
	return true
}
