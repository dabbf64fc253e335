package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
)

// sizes fixes how much work each workload does. Request and pass counts
// scale with -seconds through the rates in fullSizes, never with
// measured speed, so a given -seconds gives the same work on every
// commit.
type sizes struct {
	classes int // Giant hierarchy for serve, edit and devirt

	serveYesterday int // lookups replayed into the cache before the image is written
	// serveRequests is the number of requests in a pass. Today's log
	// holds serveBatch lookups for each, so a pass traverses it exactly
	// once and its mix of hits and fills does not depend on -seconds.
	serveRequests int
	servePasses   int // each from a fresh mapping of the image, after serveRestarts warm starts
	serveSetups   int

	editWarm   int // lookups warming the bound snapshot
	editRounds int // per pass
	editPasses int

	devirtTUs    int // per pass
	devirtSites  int // call sites per translation unit
	devirtPasses int

	lintFiles    int // per pass
	lintPasses   int
	lintDeadline time.Duration
}

// Fixed request shapes and cadences.
const (
	serveBatch       = 64  // Snapshot.Lookup calls per serve request
	serveCheckEvery  = 101 // serve requests between oracle checks
	serveTraceEvery  = 512 // serve requests between traced ones
	serveFillEvery   = 256 // serve requests between fill samples, traced runs only
	serveRestarts    = 2   // warm starts per serve pass
	editOps          = 8   // hierarchy edits per edit round
	editRequery      = 256 // lookups after each edit round, half on edited members
	editCheckEvery   = 25
	devirtCheckEvery = 10
	// editSetupReps and tinySetupReps are how many times edit and the
	// workloads whose set-up takes milliseconds (devirt, lint) set up
	// per pass, to steady the median setup_s. The last set-up serves.
	editSetupReps = 2
	tinySetupReps = 10
)

func fullSizes(seconds float64) sizes {
	scale := func(perSecond float64) int { return max(1, int(math.Round(perSecond*seconds))) }
	return sizes{
		classes:        20_000,
		serveYesterday: 2_000_000,
		serveRequests:  1 << 15,
		servePasses:    scale(2),
		serveSetups:    3,
		editWarm:       1_000_000,
		editRounds:     scale(10),
		editPasses:     2,
		devirtTUs:      scale(10),
		devirtSites:    2048,
		devirtPasses:   2,
		lintFiles:      scale(10),
		lintPasses:     4,
		lintDeadline:   5 * time.Second,
	}
}

// smokeSizes is the test-sized benchmark: every code path, a few
// hundred requests, seconds of wall time.
func smokeSizes() sizes {
	return sizes{
		classes:        2_000,
		serveYesterday: 20_000,
		serveRequests:  600,
		servePasses:    3,
		serveSetups:    2,
		editWarm:       10_000,
		editRounds:     30,
		editPasses:     2,
		devirtTUs:      20,
		devirtSites:    256,
		devirtPasses:   2,
		lintFiles:      4,
		lintPasses:     2,
		lintDeadline:   time.Second,
	}
}

// giantConfig is the hierarchy serve, edit and devirt share: the scale
// experiments' Giant shape with the 512-name session universe, every
// field spelled out so that a change to hiergen's defaults cannot
// change the workload unnoticed (the input fingerprint would still
// catch it). The hierarchy does not depend on -seed, which draws the
// traffic over it: with the seed in the hierarchy, the cone sizes of
// the few hot interface classes, and with them devirt's cost per call
// site, moved by 40% from seed to seed.
func giantConfig(classes int) hiergen.GiantConfig {
	return hiergen.GiantConfig{
		Classes:     classes,
		MemberNames: 512,
		Interfaces:  max(4, classes/100),
		FatWidth:    24,
		TowerHeight: 6,
		ChainLen:    12,
		Decls:       classes,
		VirtualProb: 0.35,
		Seed:        1997,
	}
}

// inputHash fingerprints a workload's generated inputs, so that runs
// whose inputs differ — a hiergen change, another seed — are never
// compared as if only the code under test had changed.
type inputHash struct {
	h   hash.Hash
	buf []byte
}

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (f *inputHash) graph(g *chg.Graph) error { return g.WriteSource(f.h) }

func (f *inputHash) text(s string) {
	f.buf = binary.LittleEndian.AppendUint64(f.buf[:0], uint64(len(s)))
	f.h.Write(f.buf)
	io.WriteString(f.h, s)
}

func (f *inputHash) sites(sites []hiergen.CallSite) {
	f.buf = f.buf[:0]
	for _, s := range sites {
		f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(s.Class))
		f.buf = binary.LittleEndian.AppendUint32(f.buf, uint32(s.Member))
		if len(f.buf) >= 1<<16 {
			f.h.Write(f.buf)
			f.buf = f.buf[:0]
		}
	}
	f.h.Write(f.buf)
}

func (f *inputHash) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// result is what one run of one workload reports to the coordinator.
type result struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Fingerprint string `json:"fingerprint"`

	// Failed counts requests that hit a layer error, disagreed with the
	// oracle or missed the lint deadline; Errors and Mismatches count
	// the first two kinds again on their own.
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`
	Checked    int `json:"checked"` // requests checked against an oracle

	// Passes is the number of passes over the requests; each pass's
	// percentiles rest on Samples request latencies.
	Passes  int `json:"passes"`
	Samples int `json:"samples"`

	Metrics map[string]float64 `json:"metrics"`          // end-to-end
	Layers  map[string]float64 `json:"layers,omitempty"` // per-layer, traced runs only

	// PeakRSSMB is reported, never compared: it follows GC timing.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// RequestNs is the summed request time. In traced runs,
	// LayerSelfNs is the summed self time of the spans nested in request
	// spans and RequestSpanNs the summed duration of those request spans.
	RequestNs     int64 `json:"request_ns"`
	LayerSelfNs   int64 `json:"layer_self_ns,omitempty"`
	RequestSpanNs int64 `json:"request_span_ns,omitempty"`

	// Spans summarizes the traced run's spans per name.
	Spans spanSummary `json:"spans,omitempty"`

	// LintDigests maps each lint file to a digest of its diagnostics'
	// fingerprints.
	LintDigests map[string]string `json:"lint_digests,omitempty"`
}

// loadStats accumulates one run's measurements. A run makes several
// passes over the same requests, each from a fresh serving state so that
// every pass does the same work. A timing metric is computed per pass,
// from the requests as they ran, and reported as the median over the
// passes, so that a pass that ran through a slow phase of a shared host
// weighs no more than any other.
type loadStats struct {
	setups []time.Duration
	lat    []float64 // ms, per request of the pass under way
	ops    int       // operations of the pass under way
	passes []passStats
}

// passStats summarizes one finished pass. Its request latencies are
// dropped, so that they do not count in the live heap.
type passStats struct {
	requests        int
	busyMs, opsPerS float64
	p50, p90, p99   float64
}

// setup times one set-up. It collects first, so that the previous
// set-up's garbage is not charged to this one.
func (l *loadStats) setup(f func() error) error {
	runtime.GC()
	start := time.Now()
	err := f()
	l.setups = append(l.setups, time.Since(start))
	return err
}

func (l *loadStats) request(d time.Duration, ops int) {
	l.lat = append(l.lat, float64(d)/1e6)
	l.ops += ops
}

// endPass summarizes the pass under way.
func (l *loadStats) endPass() {
	var busy float64
	for _, ms := range l.lat {
		busy += ms
	}
	l.passes = append(l.passes, passStats{
		requests: len(l.lat),
		busyMs:   busy,
		opsPerS:  float64(l.ops) / (busy / 1e3),
		p50:      percentile(l.lat, 0.50),
		p90:      percentile(l.lat, 0.90),
		p99:      percentile(l.lat, 0.99),
	})
	l.lat, l.ops = nil, 0
}

// perPass is the median over passes of f of each pass.
func (l *loadStats) perPass(f func(passStats) float64) float64 {
	vs := make([]float64, len(l.passes))
	for i, p := range l.passes {
		vs[i] = f(p)
	}
	return median(vs)
}

// fill sets the metrics every workload reports.
func (l *loadStats) fill(r *result, liveHeap uint64) {
	setups := make([]float64, len(l.setups))
	for i, d := range l.setups {
		setups[i] = d.Seconds()
	}
	var busy float64
	for _, p := range l.passes {
		busy += p.busyMs
	}
	r.Passes = len(l.passes)
	r.Samples = l.passes[0].requests
	r.RequestNs = int64(busy * 1e6)
	r.Metrics["setup_s"] = median(setups)
	r.Metrics["ops_per_s"] = l.perPass(func(p passStats) float64 { return p.opsPerS })
	r.Metrics["req_p50_ms"] = l.perPass(func(p passStats) float64 { return p.p50 })
	r.Metrics["req_p90_ms"] = l.perPass(func(p passStats) float64 { return p.p90 })
	r.Metrics["live_heap_mb"] = float64(liveHeap) / 1e6
	r.Metrics["fail_frac"] = float64(r.Failed) / float64(max(1, r.Attempted))
	r.PeakRSSMB = peakRSSMB()
}

// liveHeap is HeapAlloc after a full collection. The caller keeps the
// serving state reachable across the call.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

func gcPauseNs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.PauseTotalNs
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// minorFaults is the process's count of page faults served without I/O:
// in serve, mostly fills writing into the image's private mapping for
// the first time, which copies the page.
func minorFaults() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Minflt
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
