package core

import (
	"cpplookup/internal/chg"
)

// BuildTableUnpruned is the pre-pruning member-major tabulation kept
// as the ablation baseline for experiment E14: one full topological
// pass over *all* classes per member name — the literal
// O(|M|·|N|·…) reading of Figure 8 — with a per-class binary search
// to locate the member's entry. Differential tests pin it equal to
// the batched build; benchmarks show what support pruning saves.
func (k *Kernel) BuildTableUnpruned() *Table {
	g := k.g
	n := g.NumClasses()
	t := &Table{
		g:       g,
		pool:    k.pool,
		members: memberUniverse(g),
		results: make([][]Cell, n),
	}
	for c := 0; c < n; c++ {
		t.results[c] = make([]Cell, len(t.members[c]))
	}
	for mid := 0; mid < g.NumMemberNames(); mid++ {
		k.fillMember(t, chg.MemberID(mid))
	}
	return t
}

// fillMember runs the topological pass of Figure 8 for one member
// name, writing only that member's entries. Distinct member names
// touch disjoint entries, so concurrent fillMember calls are safe.
func (k *Kernel) fillMember(t *Table, m chg.MemberID) {
	for _, c := range t.g.Topo() {
		i := memberIndex(t.members[c], m)
		if i < 0 {
			continue
		}
		t.results[c][i] = k.Resolve(c, m, func(x chg.ClassID) Result {
			return t.Lookup(x, m)
		}).Cell()
	}
}

// memberIndex finds m in a sorted member list, or -1.
func memberIndex(ms []chg.MemberID, m chg.MemberID) int {
	if i := memberLowerBound(ms, m); i < len(ms) && ms[i] == m {
		return i
	}
	return -1
}
