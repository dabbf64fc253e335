package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one traced call into a layer, recorded by the benchmark around
// the call (the layers themselves are not instrumented). Parent is the
// ID of the enclosing span, 0 for none; Request is the index of the
// request the call served, -1 for set-up work outside any request.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory for one single-threaded run. Spans
// nest: begin opens a child of the innermost open span and end closes
// it again. Every method is a no-op on a nil tracer, which is how the
// untraced run calls the same code without recording anything.
type tracer struct {
	spans []span
	open  []int32
	req   int64
}

func newTracer() *tracer { return &tracer{req: -1} }

// now is the span clock: wall-clock nanoseconds, so that spans a lint
// worker process records line up with its parent's.
func now() int64 { return time.Now().UnixNano() }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return 0
	}
	var parent int32
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.req, Name: name, Start: now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id-1].End = now()
	t.open = t.open[:len(t.open)-1]
}

// beginRequest opens the root span of request i.
func (t *tracer) beginRequest(i int, name string) int32 {
	if t == nil {
		return 0
	}
	t.req = int64(i)
	return t.begin(name)
}

func (t *tracer) endRequest(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.req = -1
}

// adopt appends spans recorded elsewhere (a lint worker) as children of
// the open span parent, renumbering their IDs.
func (t *tracer) adopt(parent int32, spans []span) {
	if t == nil {
		return
	}
	base := int32(len(t.spans))
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Request = t.req
		t.spans = append(t.spans, s)
	}
}

// spanStats aggregates every span of one name.
type spanStats struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"` // Total minus the time child spans cover
	P50   int64 `json:"p50_ns"`
}

// childCover returns, per span, how much of its interval the union of
// its children's intervals covers. Children are recorded in start
// order, so one running high-water mark per parent yields the union.
func childCover(spans []span) []int64 {
	covered := make([]int64, len(spans))
	mark := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		lo := max(s.Start, p.Start, mark[s.Parent-1])
		hi := min(s.End, p.End)
		if hi > lo {
			covered[s.Parent-1] += hi - lo
			mark[s.Parent-1] = hi
		}
	}
	return covered
}

// spanSummary holds the statistics of each span name.
type spanSummary map[string]*spanStats

// p50ms and totalMs read a span name's median and total time, 0 for a
// name no span has.
func (s spanSummary) p50ms(name string) float64 {
	if st := s[name]; st != nil {
		return ms(st.P50)
	}
	return 0
}

func (s spanSummary) totalMs(name string) float64 {
	if st := s[name]; st != nil {
		return ms(st.Total)
	}
	return 0
}

// summarize computes count, total, median and self time per span name.
// A span's self time is its duration minus what its children cover.
func summarize(spans []span) spanSummary {
	covered := childCover(spans)
	out := make(spanSummary)
	durs := make(map[string][]int64)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered[i]
		durs[s.Name] = append(durs[s.Name], s.dur())
	}
	for name, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[name].P50 = ds[(len(ds)-1)/2]
	}
	return out
}

// layerSelf sums the self time of every span nested in a span named
// request, and the durations of those request spans. In a correct trace
// the first never exceeds the second.
func layerSelf(spans []span, request string) (self, requests int64) {
	inside := make([]bool, len(spans))
	for i, s := range spans {
		if s.Name == request {
			requests += s.dur()
		}
		if s.Parent != 0 {
			inside[i] = inside[s.Parent-1] || spans[s.Parent-1].Name == request
		}
	}
	covered := childCover(spans)
	for i, s := range spans {
		if inside[i] {
			self += s.dur() - covered[i]
		}
	}
	return self, requests
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.Parent), 10)
		line = append(line, `,"request":`...)
		line = strconv.AppendInt(line, s.Request, 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.Name)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
