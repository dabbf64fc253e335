package core

import (
	"fmt"
	"io"
	"strings"

	"cpplookup/internal/chg"
)

// EdgeFlow records the abstractions that reach a class along one
// incoming edge, after applying the ∘ operator — the left-hand side
// of the "⇒" annotations in Figures 6 and 7.
type EdgeFlow struct {
	From chg.ClassID // the direct base the flow arrives from
	Defs []Def       // one Def for a red result, the whole set for blue
}

// ClassTrace is the Figure 6/7 view of one class for one member: the
// incoming abstractions and the result produced at the class.
type ClassTrace struct {
	Class     chg.ClassID
	Generated bool // the class declares the member itself
	Incoming  []EdgeFlow
	Result    Result
}

// TraceMember computes lookup[·, m] for every class and records the
// abstraction flow that Figures 6 and 7 depict. The results are
// identical to Lookup/BuildTable; the trace only adds the incoming
// views. Indexed by class id.
func (a *Analyzer) TraceMember(m chg.MemberID) []ClassTrace {
	g := a.k.g
	traces := make([]ClassTrace, g.NumClasses())
	results := make([]Result, g.NumClasses())
	for _, c := range g.Topo() {
		tr := ClassTrace{Class: c, Generated: g.Declares(c, m)}
		for _, e := range g.DirectBases(c) {
			r := results[e.Base]
			switch r.Kind() {
			case RedKind:
				rd := r.Def()
				tr.Incoming = append(tr.Incoming, EdgeFlow{
					From: e.Base,
					Defs: []Def{{L: rd.L, V: extendAbs(rd.V, e.Base, e.Kind)}},
				})
			case BlueKind:
				flow := EdgeFlow{From: e.Base}
				for _, d := range r.Blue() {
					flow.Defs = append(flow.Defs, Def{L: d.L, V: extendAbs(d.V, e.Base, e.Kind)})
				}
				tr.Incoming = append(tr.Incoming, flow)
			}
		}
		results[c] = a.k.resolve(c, m, func(x chg.ClassID) Result { return results[x] }, new(resolveScratch))
		tr.Result = results[c]
		traces[c] = tr
	}
	return traces
}

// WriteTrace renders a TraceMember result in the style of Figures 6
// and 7: one line per class, "<incoming> => <result>".
func WriteTrace(w io.Writer, g *chg.Graph, traces []ClassTrace) error {
	var b strings.Builder
	for _, c := range g.Topo() {
		tr := traces[c]
		if tr.Result.Kind() == Undefined {
			continue
		}
		fmt.Fprintf(&b, "%s: ", g.Name(c))
		if tr.Generated {
			b.WriteString("[declares] ")
		}
		if len(tr.Incoming) > 0 {
			var parts []string
			for _, ef := range tr.Incoming {
				var ds []string
				for _, d := range ef.Defs {
					if d.L == chg.Omega {
						ds = append(ds, className(g, d.V))
					} else {
						ds = append(ds, fmt.Sprintf("(%s, %s)", className(g, d.L), className(g, d.V)))
					}
				}
				parts = append(parts, fmt.Sprintf("from %s: %s", g.Name(ef.From), strings.Join(ds, ", ")))
			}
			b.WriteString(strings.Join(parts, "; "))
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "=> %s\n", tr.Result.Format(g))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
