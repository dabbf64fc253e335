// Package suggest produces "did you mean …?" candidates for failed
// member lookups, the diagnostic nicety production front ends layer
// over exactly the machinery this repository implements: the
// candidate set for a typo in `x.m` is Members[class of x], the set
// Figure 8's lines [6]–[9] define (chg.Graph.VisibleMembers).
package suggest

import (
	"sort"
	"strings"

	"cpplookup/internal/chg"
)

// MaxDistance is the largest edit distance considered a plausible
// typo (scaled down for very short names, where 2 edits can reach
// anything).
const MaxDistance = 2

// Members returns up to max member names visible in class c that are
// plausible corrections for `name`, best first. Ties break
// alphabetically for determinism.
func Members(g *chg.Graph, c chg.ClassID, name string, max int) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	limit := MaxDistance
	if len(name) <= 3 {
		limit = 1
	}
	for _, m := range g.VisibleMembers(c) {
		mn := g.MemberName(m)
		if mn == name {
			continue
		}
		if d := Distance(name, mn, limit); d >= 0 {
			cands = append(cands, cand{mn, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// Classes returns up to max class names that are plausible
// corrections for `name` (for unknown classes in qualified names).
func Classes(g *chg.Graph, name string, max int) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	limit := MaxDistance
	if len(name) <= 3 {
		limit = 1
	}
	for _, cn := range g.ClassNames() {
		if cn == name {
			continue
		}
		if d := Distance(name, cn, limit); d >= 0 {
			cands = append(cands, cand{cn, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// Distance returns the case-insensitive Levenshtein distance between
// a and b if it is ≤ limit, and -1 otherwise (banded computation, so
// long names cost O(len·limit)).
func Distance(a, b string, limit int) int {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la-lb > limit || lb-la > limit {
		return -1
	}
	// Standard DP with a band of width 2·limit+1.
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitute
			if v := prev[j] + 1; v < m {
				m = v // delete
			}
			if v := cur[j-1] + 1; v < m {
				m = v // insert
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > limit {
			return -1
		}
		prev, cur = cur, prev
	}
	if prev[lb] > limit {
		return -1
	}
	return prev[lb]
}
