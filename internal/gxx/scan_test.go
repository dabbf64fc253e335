package gxx

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/subobject"
)

// bfsLookupTrace is the breadth-first scan as it ran before the scan
// order was shared: one BFS per lookup, enqueueing as it dequeues and
// quitting at the first incomparable pair. It is the reference the
// shared-order scan must reproduce exactly.
func bfsLookupTrace(sg *subobject.Graph, m chg.MemberID) (Result, Trace) {
	g := sg.CHG()
	res := Result{Outcome: NotFound}
	var tr Trace
	root := sg.Root()
	if g.Declares(sg.Class(root), m) {
		res.Outcome = Resolved
		res.Subobject = root
		res.Class = sg.Class(root)
		res.Visited = 1
		tr.Seen = []subobject.ID{root}
		tr.Best, tr.HaveBest = root, true
		return res, tr
	}
	var queue []subobject.ID
	enqueued := make([]bool, sg.NumSubobjects())
	for _, c := range sg.Subobject(root).Contains {
		if !enqueued[c] {
			enqueued[c] = true
			queue = append(queue, c)
		}
	}
	haveBest := false
	var best subobject.ID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		res.Visited++
		if g.Declares(sg.Class(cur), m) {
			tr.Seen = append(tr.Seen, cur)
			switch {
			case !haveBest:
				haveBest = true
				best = cur
			case sg.Dominates(best, cur):
			case sg.Dominates(cur, best):
				best = cur
			default:
				res.Outcome = ReportedAmbiguous
				tr.Conflict = [2]subobject.ID{best, cur}
				tr.Best, tr.HaveBest = best, true
				return res, tr
			}
		}
		for _, c := range sg.Subobject(cur).Contains {
			if !enqueued[c] {
				enqueued[c] = true
				queue = append(queue, c)
			}
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

// TestScanMatchesPerLookupBFS checks that one scan order per subobject
// graph, shared by every member, gives exactly the Result and Trace
// (Visited, Seen, Best, Conflict) of a fresh breadth-first scan per
// lookup — through a Scan reused across members and through the
// one-off LookupTrace — for every (class, member) of Figure 9 and of
// seeded random hierarchies.
func TestScanMatchesPerLookupBFS(t *testing.T) {
	graphs := []*chg.Graph{hiergen.Figure9()}
	rng := rand.New(rand.NewSource(9))
	for range 60 {
		graphs = append(graphs, hiergen.Random(hiergen.RandomConfig{
			Classes: 4 + rng.Intn(14), MaxBases: 3, VirtualProb: 0.35,
			MemberNames: 4, MemberProb: 0.35, Seed: rng.Int63(),
		}))
	}
	divergent := 0
	for gi, g := range graphs {
		name := fmt.Sprintf("graph %d", gi)
		for c := range g.NumClasses() {
			sg, err := subobject.Build(g, chg.ClassID(c), 1<<14)
			if err != nil {
				t.Fatal(err)
			}
			scan := NewScan(sg)
			for m := range g.NumMemberNames() {
				m := chg.MemberID(m)
				wantR, wantT := bfsLookupTrace(sg, m)
				gotR, gotT := scan.LookupTrace(m)
				if !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotT, wantT) {
					t.Errorf("%s: %s::%s: shared scan = %+v %+v, per-lookup BFS = %+v %+v",
						name, g.Name(chg.ClassID(c)), g.MemberName(m), gotR, gotT, wantR, wantT)
				}
				oneR, oneT := LookupTrace(sg, m)
				if !reflect.DeepEqual(oneR, wantR) || !reflect.DeepEqual(oneT, wantT) {
					t.Errorf("%s: %s::%s: LookupTrace = %+v %+v, per-lookup BFS = %+v %+v",
						name, g.Name(chg.ClassID(c)), g.MemberName(m), oneR, oneT, wantR, wantT)
				}
				if wantR.Outcome == ReportedAmbiguous {
					divergent++
				}
			}
		}
	}
	if divergent == 0 {
		t.Error("no lookup reported ambiguity; the fixtures never reach the early exit")
	}
}
