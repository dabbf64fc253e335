// Package access implements the access-rights computation the paper
// defers to its companion report [8] (Section 6): access specifiers
// "do not affect the member lookup process in any way; they are
// applied only after a successful member lookup to determine if that
// particular member access is legal".
//
// The model: every member declaration has an access level in its
// class, and every inheritance edge has an access level (explicit, or
// public-for-struct / private-for-class by default). A member
// declared in class L and reached from a context class C through a
// definition path L → … → C is accessible *from outside the class
// hierarchy* iff its declared level is public and every inheritance
// edge along the path is public: each step restricts the effective
// level to the more private of the two. This is the [class.access]
// rule for non-friend, non-member contexts, which is what the
// frontend's free functions are.
package access

import (
	"fmt"

	"cpplookup/internal/bitset"
	"cpplookup/internal/chg"
)

// Level is an access level; the zero value is Public.
type Level uint8

const (
	Public Level = iota
	Protected
	Private
)

func (l Level) String() string {
	switch l {
	case Public:
		return "public"
	case Protected:
		return "protected"
	case Private:
		return "private"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Restrict returns the more restrictive of two levels.
func Restrict(a, b Level) Level {
	if b > a {
		return b
	}
	return a
}

type memberKey struct {
	c chg.ClassID
	m chg.MemberID
}

type edgeKey struct {
	derived chg.ClassID
	base    chg.ClassID
}

// Table records declared access levels for one hierarchy. Unset
// entries default to Public, so a Table-less analysis (e.g. the pure
// algorithm benchmarks) treats everything as accessible.
type Table struct {
	g      *chg.Graph
	member map[memberKey]Level
	edge   map[edgeKey]Level
}

// NewTable returns an empty access table for g.
func NewTable(g *chg.Graph) *Table {
	return &Table{
		g:      g,
		member: make(map[memberKey]Level),
		edge:   make(map[edgeKey]Level),
	}
}

// SetMember records the declared access of member m in class c.
func (t *Table) SetMember(c chg.ClassID, m chg.MemberID, l Level) {
	t.member[memberKey{c, m}] = l
}

// SetEdge records the access of the direct inheritance edge
// base → derived.
func (t *Table) SetEdge(derived, base chg.ClassID, l Level) {
	t.edge[edgeKey{derived, base}] = l
}

// Member returns the declared access of member m in class c (Public
// if unset).
func (t *Table) Member(c chg.ClassID, m chg.MemberID) Level {
	return t.member[memberKey{c, m}]
}

// Edge returns the access of the direct edge base → derived (Public
// if unset).
func (t *Table) Edge(derived, base chg.ClassID) Level {
	return t.edge[edgeKey{derived, base}]
}

// AlongPath returns the effective access level of member m declared
// at path[0], reached through the definition path (a CHG path,
// least-derived class first — exactly what core.WithTrackPaths
// produces in Result.Path). The path must have at least one node.
func (t *Table) AlongPath(path []chg.ClassID, m chg.MemberID) Level {
	if len(path) == 0 {
		panic("access: empty path")
	}
	eff := t.Member(path[0], m)
	for i := 0; i+1 < len(path); i++ {
		eff = Restrict(eff, t.Edge(path[i+1], path[i]))
	}
	return eff
}

// Accessible reports whether the member reached through path is
// usable from a context outside the hierarchy (a free function):
// effective access must be Public.
func (t *Table) Accessible(path []chg.ClassID, m chg.MemberID) bool {
	return t.AlongPath(path, m) == Public
}

// BestPath returns the most permissive effective level over *any*
// path from the declaring class to the context class — useful for
// diagnosing why an access failed ("private along the found path, but
// public via another route" never happens under the C++ rule that the
// lookup fixes the path first; this reports what a user could do
// about it). declaring must be ctx or a base of ctx.
func (t *Table) BestPath(declaring, ctx chg.ClassID, m chg.MemberID) Level {
	toCtx := bitset.New(t.g.NumClasses()) // ctx and its bases: the classes on some path to ctx
	toCtx.Add(int(ctx))
	t.g.EachAncestor(ctx, new(bitset.Set), nil, func(x chg.ClassID) { toCtx.Add(int(x)) })
	best := Private
	var walk func(c chg.ClassID, eff Level)
	walk = func(c chg.ClassID, eff Level) {
		if eff >= best && best != Private {
			return // cannot improve
		}
		if c == ctx {
			if eff < best {
				best = eff
			}
			return
		}
		for _, d := range t.g.DirectDerived(c) {
			if toCtx.Has(int(d)) {
				walk(d, Restrict(eff, t.Edge(d, c)))
			}
		}
	}
	walk(declaring, t.Member(declaring, m))
	return best
}
