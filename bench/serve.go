package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/image"
)

// runServe is the language-server query path: a snapshot warmed by
// yesterday's traffic is saved as an image, and requests of 64 lookups
// from today's traffic are answered from the memory-mapped image. It is
// the only workload dominated by warm-hit cell reads and the image
// layer; the requests' head hits the mapped cells and their tail fills.
func runServe(env *runEnv) (*result, error) {
	sz, tr := env.sz, env.tr
	g := hiergen.Giant(giantConfig(sz.classes))
	yesterday := hiergen.CallSites(g, sz.serveYesterday, env.seed+1)
	today := hiergen.CallSites(g, sz.serveRequests*serveBatch, env.seed+2)
	fp := newInputHash()
	if err := fp.graph(g); err != nil {
		return nil, err
	}
	fp.sites(yesterday)
	fp.sites(today)
	// The paper-literal Figure 8 table, built eagerly by the kernel
	// without the snapshot cache, image or pool columns under test.
	oracle := core.NewKernel(g).BuildTable()

	r := &result{Fingerprint: fp.sum(), Metrics: map[string]float64{}}
	var load loadStats
	path := filepath.Join(env.out, "serve.image")
	defer os.Remove(path)
	for range sz.serveSetups {
		var im *image.Image
		err := load.setup(func() (err error) {
			im, err = serveSetup(tr, g, yesterday, path)
			return err
		})
		if err == nil {
			err = im.Close()
		}
		if err != nil {
			return nil, err
		}
	}

	// Every pass maps the image afresh, so that every pass starts from
	// yesterday's cache and fills the same cells.
	var restarts []float64
	var fills, pause uint64
	var payloads, faults int64
	var answers [serveBatch]core.Result
	var im *image.Image
	defer func() {
		if im != nil {
			im.Close()
		}
	}()
	for pass := range sz.servePasses {
		if im != nil {
			if err := im.Close(); err != nil {
				return nil, err
			}
			im = nil
		}
		for k := range serveRestarts {
			rs, err := warmStart(tr, path, today[(pass*serveRestarts+k)%len(today)])
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, rs)
		}
		var err error
		if im, err = image.OpenFile(path); err != nil {
			return nil, err
		}
		snap := im.Snapshot()
		var filledBefore int
		if tr != nil && pass == 0 {
			filledBefore = snap.CachedEntries()
		}
		pauseBefore, faultsBefore := gcPauseNs(), minorFaults()
		for i := range sz.serveRequests {
			qs := today[i*serveBatch : (i+1)*serveBatch]
			traced := tr != nil && i%serveTraceEvery == 0
			var req int32
			if traced {
				req = tr.beginRequest(i, "serve.request")
			}
			start := time.Now()
			if traced {
				for k, q := range qs {
					sp := tr.begin("engine.lookup")
					answers[k] = snap.Lookup(q.Class, q.Member)
					tr.end(sp)
				}
			} else {
				for k, q := range qs {
					answers[k] = snap.Lookup(q.Class, q.Member)
				}
			}
			load.request(time.Since(start), serveBatch)
			if traced {
				tr.endRequest(req)
			}
			r.Attempted++
			if pass == 0 && i%serveCheckEvery == 0 {
				r.Checked++
				if !matchesTable(oracle, qs, answers[:]) {
					r.Mismatches++
					r.Failed++
				}
			}
		}
		load.endPass()
		if pass == 0 {
			pause, faults = gcPauseNs()-pauseBefore, minorFaults()-faultsBefore
			if tr != nil {
				fills = uint64(snap.CachedEntries() - filledBefore)
				payloads = int64(snap.Pool().Len())
			}
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	r.Metrics["image_mb"] = float64(st.Size()) / 1e6
	r.Metrics["warm_start_ms"] = median(restarts)
	r.Metrics["req_p99_ms"] = load.perPass(func(p passStats) float64 { return p.p99 })
	var share float64
	if tr != nil {
		if share, err = fillShare(path, today); err != nil {
			return nil, err
		}
	}
	// The inputs and the oracle are dead from here on, so the heap
	// measured is the serving state's.
	load.fill(r, liveHeap())
	runtime.KeepAlive(im)

	if tr != nil {
		s := summarize(tr.spans)
		lookups := float64(sz.serveRequests * serveBatch)
		r.Layers = map[string]float64{
			"engine.lookup.ns":                 s.p50ms("engine.lookup") * 1e6,
			"engine.lookup.fills":              float64(fills),
			"engine.lookup.hit_ratio":          max(0, 1-float64(fills)/lookups),
			"engine.lookup.fill_request_share": share,
			"image.write.s":                    s.p50ms("image.write") / 1e3,
			"image.open.ms":                    s.p50ms("image.open"),
			"image.close.ms":                   s.p50ms("image.close"),
			"image.bytes":                      float64(st.Size()),
			"image.page_faults":                float64(faults),
			"core.pool.payloads":               float64(payloads),
			"runtime.gc_pause_ms":              ms(int64(pause)),
		}
	}
	return r, nil
}

// fillShare replays one pass untimed on a fresh mapping of the image and
// returns the share of sampled requests that filled at least one cell.
// Counting cached entries scans every cell, so it samples.
func fillShare(path string, today []hiergen.CallSite) (float64, error) {
	im, err := image.OpenFile(path)
	if err != nil {
		return 0, err
	}
	snap := im.Snapshot()
	sampled, filling := 0, 0
	for i := 0; i < len(today)/serveBatch; i++ {
		sample := i%serveFillEvery == 0
		var before int
		if sample {
			before = snap.CachedEntries()
		}
		for _, q := range today[i*serveBatch : (i+1)*serveBatch] {
			snap.Lookup(q.Class, q.Member)
		}
		if sample {
			sampled++
			if snap.CachedEntries() > before {
				filling++
			}
		}
	}
	if err := im.Close(); err != nil {
		return 0, err
	}
	return float64(filling) / float64(sampled), nil
}

// warmStart restarts a server: map the image, answer one query, unmap.
// It returns the restart's time in milliseconds.
func warmStart(tr *tracer, path string, q hiergen.CallSite) (float64, error) {
	start := time.Now()
	sp := tr.begin("image.open")
	im, err := image.OpenFile(path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("engine.lookup")
	im.Snapshot().Lookup(q.Class, q.Member)
	tr.end(sp)
	sp = tr.begin("image.close")
	err = im.Close()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / 1e6, nil
}

// serveSetup builds the serving state from scratch: a cold snapshot,
// warmed by replaying yesterday's lookups, saved as an image and mapped
// back in. Only the mapped image serves requests.
func serveSetup(tr *tracer, g *chg.Graph, yesterday []hiergen.CallSite, path string) (*image.Image, error) {
	sp := tr.begin("engine.new_snapshot")
	s := engine.NewSnapshot(g)
	tr.end(sp)
	sp = tr.begin("engine.replay")
	for _, q := range yesterday {
		s.Lookup(q.Class, q.Member)
	}
	tr.end(sp)
	sp = tr.begin("image.write")
	err := image.WriteFile(path, s)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("writing the serve image: %w", err)
	}
	sp = tr.begin("image.open")
	im, err := image.OpenFile(path)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("opening the serve image: %w", err)
	}
	return im, nil
}

// matchesTable reports whether every answer equals the oracle table's
// entry for its query.
func matchesTable(t *core.Table, qs []hiergen.CallSite, answers []core.Result) bool {
	for k, q := range qs {
		if !answers[k].Equal(t.Lookup(q.Class, q.Member)) {
			return false
		}
	}
	return true
}
