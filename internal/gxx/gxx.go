// Package gxx reimplements the member lookup of GNU g++ 2.7.2.1 as
// Section 7.1 of the paper describes it — the baseline whose
// incorrectness Figure 9 demonstrates.
//
// The g++ algorithm breadth-first-traverses the subobject graph of the
// context class. It keeps a single "most dominant member found so
// far"; whenever it finds another subobject declaring the member, it
// compares the two: if one dominates the other, the dominator is kept;
// *if neither dominates the other, it reports ambiguity and quits*.
// That last step is the bug: a breadth-first scan can meet two
// incomparable definitions d1, d2 before reaching a definition d3 that
// dominates both. On Figure 9, g++ (and 3 of the 7 compilers the
// authors tried) therefore rejects a well-formed lookup.
//
// Exhaustive is the corrected variant — collect every definition, then
// select the most dominant — which is correct but still walks the
// worst-case-exponential subobject graph, unlike the paper's
// polynomial algorithm in internal/core.
package gxx

import (
	"cpplookup/internal/chg"
	"cpplookup/internal/subobject"
)

// Outcome classifies what the g++-style lookup did.
type Outcome uint8

const (
	// NotFound: no subobject declares the member.
	NotFound Outcome = iota
	// Resolved: the scan completed with a single dominant member.
	Resolved
	// ReportedAmbiguous: the scan saw two incomparable members and
	// quit — which may be a *false* ambiguity (Figure 9).
	ReportedAmbiguous
)

func (o Outcome) String() string {
	switch o {
	case NotFound:
		return "not found"
	case Resolved:
		return "resolved"
	case ReportedAmbiguous:
		return "reported ambiguous"
	}
	return "unknown"
}

// Result is the outcome of a g++-style lookup.
type Result struct {
	Outcome   Outcome
	Subobject subobject.ID // resolved subobject, when Resolved
	Class     chg.ClassID  // its class, when Resolved
	Visited   int          // subobjects dequeued before the scan ended
}

// Trace is the evidence behind a g++-style lookup: which declaring
// subobjects the breadth-first scan met, in dequeue order, and — when
// the scan quit with an ambiguity report — the incomparable pair that
// made it quit. It is what lets a diagnostic *show* the Figure 9
// failure: on lookup(E, m) the scan meets the A and B subobjects,
// finds them incomparable, and gives up while the dominating C
// definition is still sitting in its queue.
type Trace struct {
	// Seen lists the subobjects declaring m, in the order the scan
	// dequeued them.
	Seen []subobject.ID
	// Best is the scan's final "most dominant so far" when it
	// resolved; HaveBest reports whether any definition was found.
	Best     subobject.ID
	HaveBest bool
	// Conflict is the incomparable pair (previous best, newly met)
	// that triggered the ambiguity report, valid only when the result
	// outcome is ReportedAmbiguous.
	Conflict [2]subobject.ID
}

// Lookup runs the g++ 2.7.2.1 algorithm for member m over a prebuilt
// subobject graph, bug included.
func Lookup(sg *subobject.Graph, m chg.MemberID) Result {
	r, _ := LookupTrace(sg, m)
	return r
}

// LookupTrace is Lookup plus the witness trace of how the scan
// arrived at its answer. It builds the graph's scan order for this one
// lookup; callers looking up several members in one graph should
// build a Scan once and reuse it.
func LookupTrace(sg *subobject.Graph, m chg.MemberID) (Result, Trace) {
	return NewScan(sg).LookupTrace(m)
}

// Scan is the order in which g++'s breadth-first scan dequeues the
// subobjects of one complete object. Only the scan's early exit
// depends on the member looked up — the queue never does — so one
// order serves every member of the context class: a lookup walks a
// prefix of it.
type Scan struct {
	sg    *subobject.Graph
	root  subobject.ID
	order []subobject.ID // every subobject below the root, in dequeue order
}

// NewScan computes sg's breadth-first dequeue order: "if class X
// itself does not have a member called m, the algorithm performs a
// scan of all the subobjects of an X object, in breadth-first order",
// enqueueing each subobject's directly contained subobjects once, in
// containment order. A Scan is immutable and safe for concurrent use.
func NewScan(sg *subobject.Graph) *Scan {
	s := &Scan{sg: sg, root: sg.Root()}
	enqueued := make([]bool, sg.NumSubobjects())
	enqueue := func(from subobject.ID) {
		for _, c := range sg.Subobject(from).Contains {
			if !enqueued[c] {
				enqueued[c] = true
				s.order = append(s.order, c)
			}
		}
	}
	enqueue(s.root)
	for head := 0; head < len(s.order); head++ {
		enqueue(s.order[head])
	}
	return s
}

// Graph returns the subobject graph the scan walks.
func (s *Scan) Graph() *subobject.Graph { return s.sg }

// LookupTrace runs the g++ lookup of member m along the scan order.
func (s *Scan) LookupTrace(m chg.MemberID) (Result, Trace) {
	sg := s.sg
	g := sg.CHG()
	res := Result{Outcome: NotFound}
	var tr Trace

	// A context class that declares m itself answers without a scan.
	root := s.root
	if g.Declares(sg.Class(root), m) {
		res.Outcome = Resolved
		res.Subobject = root
		res.Class = sg.Class(root)
		res.Visited = 1
		tr.Seen = []subobject.ID{root}
		tr.Best, tr.HaveBest = root, true
		return res, tr
	}

	haveBest := false
	var best subobject.ID
	for _, cur := range s.order {
		res.Visited++
		if !g.Declares(sg.Class(cur), m) {
			continue
		}
		tr.Seen = append(tr.Seen, cur)
		switch {
		case !haveBest:
			haveBest = true
			best = cur
		case sg.Dominates(best, cur):
			// keep best
		case sg.Dominates(cur, best):
			best = cur
		default:
			// The incorrect step: neither dominates the other →
			// report ambiguity and quit, even though a dominator
			// of both may still be waiting in the queue.
			res.Outcome = ReportedAmbiguous
			tr.Conflict = [2]subobject.ID{best, cur}
			tr.Best, tr.HaveBest = best, true
			return res, tr
		}
	}
	if haveBest {
		res.Outcome = Resolved
		res.Subobject = best
		res.Class = sg.Class(best)
		tr.Best, tr.HaveBest = best, true
	}
	return res, tr
}

// Exhaustive is the corrected subobject-graph lookup: scan everything,
// then select the most dominant definition (the direct implementation
// of the Rossie–Friedman specification). Correct, but its cost is the
// size of the subobject graph.
func Exhaustive(sg *subobject.Graph, m chg.MemberID) Result {
	r := sg.Lookup(m)
	out := Result{Visited: sg.NumSubobjects()}
	switch {
	case len(r.Defs) == 0:
		out.Outcome = NotFound
	case r.Ambiguous:
		out.Outcome = ReportedAmbiguous
	default:
		out.Outcome = Resolved
		out.Subobject = r.Target
		out.Class = sg.Class(r.Target)
	}
	return out
}

// LookupFresh builds the subobject graph of class c and runs Lookup —
// the full cost a compiler without a cached subobject graph would pay.
// limit bounds the graph size (0 = subobject.DefaultLimit).
func LookupFresh(g *chg.Graph, c chg.ClassID, m chg.MemberID, limit int) (Result, error) {
	sg, err := subobject.Build(g, c, limit)
	if err != nil {
		return Result{}, err
	}
	return Lookup(sg, m), nil
}
