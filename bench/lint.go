package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/lint"
)

// Environment of a lint worker process.
const (
	fileEnv  = "CPPBENCH_LINT_FILE"
	traceEnv = "CPPBENCH_LINT_TRACE"
)

// lintSource is one generated corpus file with the oracle's answer.
type lintSource struct {
	name string
	src  string
	// ambiguous lists, sorted, the Class::member pairs the paper-literal
	// table marks Blue with at least two contributing direct bases —
	// exactly where the ambiguous-member rule must fire.
	ambiguous []string
}

// lintCorpus generates the lint workload's files in turn from four
// families: library-shaped Realistic hierarchies, Random DAGs,
// SparseMembers (many names, few definitions each) and small Giant
// hierarchies with single-level diamond towers. Giant's default
// six-level towers are left out on purpose: below 250 classes their
// ambiguity-witness enumeration takes anywhere from 0.1 s to minutes
// depending on the seed, which no deadline can bracket. Sizes do not
// depend on the seed, which draws each file's structure: Realistic,
// Random and Giant sizes climb a fixed ladder of ten steps, and the
// SparseMembers files, the slowest family and so the one that sets
// req_p90_ms, all have one size, so that no ladder step straddles the
// percentile.
func lintCorpus(files int, seed int64) ([]lintSource, error) {
	rng := rand.New(rand.NewSource(seed))
	corpus := make([]lintSource, 0, files)
	for i := range files {
		k := i / 4 // the file's rank in its family
		step := func(lo, hi int) int { return lo + (hi-lo)*(k%10)/9 }
		fseed := rng.Int63()
		var g *chg.Graph
		var family string
		switch i % 4 {
		case 0:
			family = "realistic"
			g = hiergen.Realistic(step(3, 10), 1+k%5)
		case 1:
			family = "random"
			g = hiergen.Random(hiergen.RandomConfig{
				Classes: step(40, 120), MaxBases: 3, VirtualProb: 0.3,
				MemberNames: 12, MemberProb: 0.1, StaticProb: 0.1, Seed: fseed,
			})
		case 2:
			family = "sparse"
			g = hiergen.SparseMembers(200, 900, 3, fseed)
		default:
			family = "giant"
			classes := step(40, 70)
			g = hiergen.Giant(hiergen.GiantConfig{
				Classes: classes, MemberNames: classes, Interfaces: 4, FatWidth: 24,
				TowerHeight: 1, ChainLen: 12, Decls: classes, VirtualProb: 0.35, Seed: fseed,
			})
		}
		var src bytes.Buffer
		if err := g.WriteSource(&src); err != nil {
			return nil, err
		}
		corpus = append(corpus, lintSource{
			name:      fmt.Sprintf("%s-%03d.cpp", family, i),
			src:       src.String(),
			ambiguous: formedAmbiguities(g),
		})
	}
	return corpus, nil
}

// formedAmbiguities is the ambiguous-member oracle, from the kernel's
// eager Figure 8 table of the generated graph (not the parsed one).
func formedAmbiguities(g *chg.Graph) []string {
	t := core.NewKernel(g, core.WithStaticRule()).BuildTable()
	var out []string
	for c := range g.NumClasses() {
		c := chg.ClassID(c)
		for _, m := range t.Members(c) {
			if !t.Lookup(c, m).Ambiguous() {
				continue
			}
			contributing := 0
			for _, e := range g.DirectBases(c) {
				if t.Lookup(e.Base, m).Kind() != core.Undefined {
					contributing++
				}
			}
			if contributing >= 2 {
				out = append(out, g.Name(c)+"::"+g.MemberName(m))
			}
		}
	}
	slices.Sort(out)
	return out
}

// runLint is chglint over a generated corpus, each file linted by a
// fresh worker process under a deadline. It is the only workload
// through the C++ frontend, the eager table, the C3 and g++ backends
// and the witness code, and it never touches snapshot cells: it is the
// bypass workload for engine, image and devirt changes.
func runLint(env *runEnv) (*result, error) {
	sz, tr := env.sz, env.tr
	corpus, err := lintCorpus(sz.lintFiles, env.seed)
	if err != nil {
		return nil, err
	}
	fp := newInputHash()
	for _, f := range corpus {
		fp.text(f.name)
		fp.text(f.src)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}

	r := &result{Fingerprint: fp.sum(), Metrics: map[string]float64{}, LintDigests: map[string]string{}}
	var load loadStats
	var heaps, procStart []float64
	var timeouts, entries, srcBytes int
	var pause uint64
	findings := map[string]int{}
	for pass := range sz.lintPasses {
		// Set-up is starting a linter process.
		for range tinySetupReps {
			err := load.setup(func() error {
				_, _, err := runWorker(exe, lintSource{name: "ready"}, false, sz.lintDeadline)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("starting a lint worker: %w", err)
			}
		}
		for i, f := range corpus {
			req := tr.beginRequest(i, "lint.file")
			spawn := now()
			rep, timedOut, err := runWorker(exe, f, tr != nil, sz.lintDeadline)
			if err == nil && rep.Error != "" {
				err = errors.New(rep.Error)
			}
			r.Attempted++
			switch {
			case timedOut:
				tr.endRequest(req)
				timeouts++
				r.Failed++
				load.request(sz.lintDeadline, 1)
				fmt.Fprintf(env.log, "lint: %s: killed at the %v deadline\n", f.name, sz.lintDeadline)
				continue
			case err != nil:
				tr.endRequest(req)
				r.Errors++
				r.Failed++
				load.request(time.Duration(now()-spawn), 1)
				fmt.Fprintf(env.log, "lint: %s: %v\n", f.name, err)
				continue
			}
			tr.adopt(req, rep.Spans)
			tr.endRequest(req)
			load.request(time.Duration(rep.DoneNs-spawn), 1)
			procStart = append(procStart, ms(rep.FirstCallNs-spawn))
			if pass > 0 {
				continue
			}
			heaps = append(heaps, float64(rep.HeapBytes))
			entries += rep.TableEntries
			srcBytes += len(f.src)
			pause += rep.GCPauseNs
			for id, n := range rep.Findings {
				findings[id] += n
			}
			r.LintDigests[f.name] = rep.Digest
			r.Checked++
			if !slices.Equal(rep.Ambiguous, f.ambiguous) {
				r.Mismatches++
				r.Failed++
				fmt.Fprintf(env.log, "lint: %s: ambiguous-member fired at %d pairs, the oracle expects %d\n",
					f.name, len(rep.Ambiguous), len(f.ambiguous))
			}
		}
		load.endPass()
	}
	load.fill(r, uint64(median(heaps)))

	if tr != nil {
		s := summarize(tr.spans)
		runs := float64(len(corpus) * sz.lintPasses)
		var parseMBps float64
		if t := s.totalMs("cpp.parse"); t > 0 {
			parseMBps = float64(srcBytes) * float64(sz.lintPasses) / 1e3 / t
		}
		r.Layers = map[string]float64{
			"cpp.parse.ms":        s.p50ms("cpp.parse"),
			"cpp.parse.mb_per_s":  parseMBps,
			"cpp.sema.ms":         s.p50ms("cpp.sema"),
			"core.table.ms":       s.p50ms("core.table"),
			"core.table.entries":  float64(entries),
			"lint.timeouts":       float64(timeouts),
			"runtime.gc_pause_ms": ms(int64(pause)),
			"proc.start.ms":       median(procStart),
		}
		for _, id := range lint.RuleIDs() {
			r.Layers["lint.rule."+id+".ms"] = s.totalMs("lint.rule."+id) / runs
			r.Layers["lint.rule."+id+".findings"] = float64(findings[id])
		}
	}
	return r, nil
}

// workerReport is a lint worker's answer for one file. Times are wall
// clock nanoseconds, comparable with the parent's.
type workerReport struct {
	FirstCallNs  int64          `json:"first_call_ns"` // entering the first layer call
	DoneNs       int64          `json:"done_ns"`       // lint finished
	Error        string         `json:"error,omitempty"`
	Findings     map[string]int `json:"findings,omitempty"` // per rule
	Ambiguous    []string       `json:"ambiguous,omitempty"`
	Digest       string         `json:"digest,omitempty"`
	TableEntries int            `json:"table_entries,omitempty"`
	HeapBytes    uint64         `json:"heap_bytes,omitempty"`
	GCPauseNs    uint64         `json:"gc_pause_ns,omitempty"`
	Spans        []span         `json:"spans,omitempty"`
}

// runWorker lints f in a fresh worker process, killing it at the
// deadline. A file without source only starts the process.
func runWorker(exe string, f lintSource, traced bool, deadline time.Duration) (workerReport, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), roleEnv+"=lint-worker", fileEnv+"="+f.name,
		fmt.Sprintf("%s=%t", traceEnv, traced))
	cmd.Stdin = bytes.NewReader([]byte(f.src))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		return workerReport{}, true, nil
	}
	if err != nil {
		return workerReport{}, false, fmt.Errorf("lint worker: %w", err)
	}
	var rep workerReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return workerReport{}, false, fmt.Errorf("lint worker output: %w", err)
	}
	return rep, false, nil
}

// lintWorker is the worker process: it lints the source on stdin the way
// chglint does and writes a workerReport to stdout.
func lintWorker(stdin io.Reader, stdout io.Writer) int {
	src, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint worker:", err)
		return 1
	}
	var rep workerReport
	if len(src) > 0 {
		rep = lintOne(string(src), os.Getenv(fileEnv), os.Getenv(traceEnv) == "true")
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "lint worker:", err)
		return 1
	}
	return 0
}

// lintOne runs parse → sema → snapshot → table → lint over one source.
// Traced, it runs each rule on its own so that each gets a span.
func lintOne(src, name string, traced bool) workerReport {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := workerReport{FirstCallNs: now()}
	sp := tr.begin("cpp.parse")
	file, parseErrs := parser.Parse(src)
	tr.end(sp)
	sp = tr.begin("cpp.sema")
	unit, err := sema.Analyze(file)
	tr.end(sp)
	switch {
	case err != nil:
		rep.Error = err.Error()
		return rep
	case len(parseErrs) > 0:
		rep.Error = fmt.Sprintf("generated source does not parse: %v", parseErrs[0])
		return rep
	}
	sp = tr.begin("engine.new_snapshot")
	snap := engine.NewSnapshot(unit.Graph, core.WithStaticRule(), core.WithTrackPaths())
	tr.end(sp)
	sp = tr.begin("core.table")
	table := snap.Table()
	tr.end(sp)

	var ds []diag.Diagnostic
	if traced {
		for _, id := range lint.RuleIDs() {
			sp := tr.begin("lint.rule." + id)
			d, err := lint.Run(snap, lint.Options{Rules: []string{id}, File: name, Source: unit})
			tr.end(sp)
			if err != nil {
				rep.Error = err.Error()
				return rep
			}
			ds = append(ds, d...)
		}
		diag.Sort(ds)
	} else if ds, err = lint.Run(snap, lint.Options{File: name, Source: unit}); err != nil {
		rep.Error = err.Error()
		return rep
	}
	rep.DoneNs = now()

	all := append(unit.Diagnostics(name), ds...)
	rep.Findings = map[string]int{}
	prints := make([]string, len(all))
	for i, d := range all {
		rep.Findings[d.Rule]++
		prints[i] = diag.FingerprintString(d)
		if d.Rule == lint.AmbiguousMember {
			rep.Ambiguous = append(rep.Ambiguous, d.Class+"::"+d.Member)
		}
	}
	slices.Sort(rep.Ambiguous)
	slices.Sort(prints)
	h := sha256.New()
	for _, p := range prints {
		io.WriteString(h, p+"\n")
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.TableEntries = table.Entries()
	rep.GCPauseNs = gcPauseNs()
	rep.HeapBytes = liveHeap()
	runtime.KeepAlive(snap)
	runtime.KeepAlive(unit)
	if tr != nil {
		rep.Spans = tr.spans
	}
	return rep
}
