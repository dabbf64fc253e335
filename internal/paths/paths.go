// Package paths is an executable rendering of the paper's formalism
// (Section 3, Definitions 1–15): paths in the class hierarchy graph,
// the fixed prefix, the ≈ equivalence that names subobjects, hiding
// and dominance, leastVirtual, and the ∘ path-extension abstraction.
//
// Everything here is written for fidelity to the definitions, not for
// speed — path enumeration is worst-case exponential in the hierarchy
// size, exactly the cost the paper's algorithm (internal/core) avoids.
// The packages' role in this repository is to be the *oracle* that the
// efficient algorithm is property-tested against, and the executable
// companion to the worked examples of Figures 3–7.
package paths

import (
	"fmt"
	"strconv"
	"strings"

	"cpplookup/internal/chg"
)

// Path is a path in the CHG: a nonempty sequence of classes
// n0 → n1 → … → nk where each nᵢ is a direct base of nᵢ₊₁. A single
// class is a path with zero edges. The paper writes paths as node
// sequences ("ABDFH"); String renders them the same way.
type Path struct {
	g     *chg.Graph
	nodes []chg.ClassID
}

// New builds a path from a node sequence, validating every step.
func New(g *chg.Graph, nodes ...chg.ClassID) (Path, error) {
	if len(nodes) == 0 {
		return Path{}, fmt.Errorf("paths: a path must have at least one node")
	}
	for _, n := range nodes {
		if !g.Valid(n) {
			return Path{}, fmt.Errorf("paths: invalid class id %d", n)
		}
	}
	for i := 0; i+1 < len(nodes); i++ {
		if _, ok := edgeKind(g, nodes[i], nodes[i+1]); !ok {
			return Path{}, fmt.Errorf("paths: %s is not a direct base of %s",
				g.Name(nodes[i]), g.Name(nodes[i+1]))
		}
	}
	return Path{g: g, nodes: append([]chg.ClassID(nil), nodes...)}, nil
}

// MustNew is New but panics on invalid paths (tests, examples).
func MustNew(g *chg.Graph, nodes ...chg.ClassID) Path {
	p, err := New(g, nodes...)
	if err != nil {
		panic(err)
	}
	return p
}

// ByNames builds a path from class names, for tests mirroring the
// paper's notation: ByNames(g, "A", "B", "D", "F", "H").
func ByNames(g *chg.Graph, names ...string) (Path, error) {
	ids := make([]chg.ClassID, len(names))
	for i, n := range names {
		id, ok := g.ID(n)
		if !ok {
			return Path{}, fmt.Errorf("paths: unknown class %q", n)
		}
		ids[i] = id
	}
	return New(g, ids...)
}

// MustByNames is ByNames but panics on error.
func MustByNames(g *chg.Graph, names ...string) Path {
	p, err := ByNames(g, names...)
	if err != nil {
		panic(err)
	}
	return p
}

// edgeKind returns the kind of the CHG edge base → derived. The second
// result is false if no such edge exists. Builder guarantees at most
// one direct edge per class pair, so the kind is unique.
func edgeKind(g *chg.Graph, base, derived chg.ClassID) (chg.Kind, bool) {
	for _, e := range g.DirectBases(derived) {
		if e.Base == base {
			return e.Kind, true
		}
	}
	return 0, false
}

// Graph returns the CHG the path lives in.
func (p Path) Graph() *chg.Graph { return p.g }

// Nodes returns the node sequence. Shared slice; do not modify.
func (p Path) Nodes() []chg.ClassID { return p.nodes }

// NumEdges returns the number of edges in the path (0 for a
// single-node path, the paper's "generated definition" shape).
func (p Path) NumEdges() int { return len(p.nodes) - 1 }

// Ldc returns the least derived class: the source of the path
// (Definition 1).
func (p Path) Ldc() chg.ClassID { return p.nodes[0] }

// Mdc returns the most derived class: the target of the path
// (Definition 1).
func (p Path) Mdc() chg.ClassID { return p.nodes[len(p.nodes)-1] }

// EdgeKind returns the kind of the i-th edge (from node i to node i+1).
func (p Path) EdgeKind(i int) chg.Kind {
	k, ok := edgeKind(p.g, p.nodes[i], p.nodes[i+1])
	if !ok {
		panic("paths: corrupted path")
	}
	return k
}

// Fixed returns the longest prefix of p that contains no virtual edge
// (Definition 2).
func (p Path) Fixed() Path {
	end := 1
	for i := 0; i+1 < len(p.nodes); i++ {
		if p.EdgeKind(i) == chg.Virtual {
			break
		}
		end = i + 2
	}
	return Path{g: p.g, nodes: p.nodes[:end]}
}

// IsVPath reports whether p contains at least one virtual edge
// (Definition 13).
func (p Path) IsVPath() bool {
	for i := 0; i+1 < len(p.nodes); i++ {
		if p.EdgeKind(i) == chg.Virtual {
			return true
		}
	}
	return false
}

// LeastVirtual returns mdc(fixed(p)) if p is a v-path and chg.Omega
// otherwise (Definition 14).
func (p Path) LeastVirtual() chg.ClassID {
	if !p.IsVPath() {
		return chg.Omega
	}
	return p.Fixed().Mdc()
}

// Concat returns p·q (Section 2's α∘β); p's last node must equal q's
// first node.
func (p Path) Concat(q Path) Path {
	if p.Mdc() != q.Ldc() {
		panic(fmt.Sprintf("paths: cannot concatenate %s and %s", p, q))
	}
	nodes := make([]chg.ClassID, 0, len(p.nodes)+len(q.nodes)-1)
	nodes = append(nodes, p.nodes...)
	nodes = append(nodes, q.nodes[1:]...)
	return Path{g: p.g, nodes: nodes}
}

// ExtendEdge returns p·(X→Y) where X = p.Mdc() and X is a direct base
// of Y; this is the propagation step of the paper's Section 4.
func (p Path) ExtendEdge(y chg.ClassID) Path {
	if _, ok := edgeKind(p.g, p.Mdc(), y); !ok {
		panic(fmt.Sprintf("paths: %s is not a direct base of %s", p.g.Name(p.Mdc()), p.g.Name(y)))
	}
	nodes := make([]chg.ClassID, 0, len(p.nodes)+1)
	nodes = append(nodes, p.nodes...)
	nodes = append(nodes, y)
	return Path{g: p.g, nodes: nodes}
}

// IsSuffixOf reports whether p is a suffix of q. A path is a suffix of
// itself.
func (p Path) IsSuffixOf(q Path) bool {
	if len(p.nodes) > len(q.nodes) {
		return false
	}
	off := len(q.nodes) - len(p.nodes)
	for i, n := range p.nodes {
		if q.nodes[off+i] != n {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether p is a prefix of q. A path is a prefix of
// itself.
func (p Path) IsPrefixOf(q Path) bool {
	if len(p.nodes) > len(q.nodes) {
		return false
	}
	for i, n := range p.nodes {
		if q.nodes[i] != n {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are the same path.
func (p Path) Equal(q Path) bool {
	return p.IsSuffixOf(q) && len(p.nodes) == len(q.nodes)
}

// Equivalent reports p ≈ q (Definition 3): equal fixed parts and equal
// most derived classes.
func Equivalent(p, q Path) bool {
	return p.Mdc() == q.Mdc() && p.Fixed().Equal(q.Fixed())
}

// Hides reports whether p hides q (Definition 5): p is a suffix of q.
func Hides(p, q Path) bool { return p.IsSuffixOf(q) }

// Dominates reports whether p dominates q (Definition 5): p hides some
// path q' ≈ q. This closed form avoids enumerating q's equivalence
// class; DominatesEnum below is the literal enumeration, and the two
// are property-tested to agree.
//
// Derivation: p dominates q iff ∃γ (possibly empty) with γ·p ≈ q,
// which unfolds by cases on whether γ is empty, purely non-virtual, or
// contains a virtual edge into the three disjuncts checked here.
func Dominates(p, q Path) bool {
	if p.Mdc() != q.Mdc() {
		return false
	}
	return dominatesFixed(p, p.Fixed(), q.Fixed())
}

// dominatesFixed is Dominates for two paths p and q with the same mdc,
// given their fixed parts fp and fq.
func dominatesFixed(p, fp, fq Path) bool {
	if fp.Equal(fq) {
		return true // γ empty: p ≈ q and p hides itself
	}
	if fp.IsSuffixOf(fq) {
		// γ purely non-virtual: fixed(γ·p) = γ·fixed(p) = fixed(q).
		return true
	}
	// γ contains a virtual edge: fixed(γ·p) = fixed(γ) = fixed(q)
	// requires γ = fixed(q)·η with η's first edge virtual and γ ending
	// at ldc(p), i.e. mdc(fixed(q)) is a virtual base of ldc(p).
	return p.g.IsVirtualBase(fq.Mdc(), p.Ldc())
}

// DominatesEnum decides dominance by Definition 5 literally: it
// enumerates every path q' with q' ≈ q and tests whether p is a suffix
// of one. Exponential; used to validate Dominates.
func DominatesEnum(p, q Path) bool {
	if p.Mdc() != q.Mdc() {
		return false
	}
	for _, qp := range AllPathsBetween(p.g, q.Ldc(), q.Mdc(), 0) {
		if Equivalent(qp, q) && Hides(p, qp) {
			return true
		}
	}
	return false
}

// String renders the path as the paper does: the concatenated class
// names, e.g. "ABDFH", with "·" separating multi-character names.
func (p Path) String() string {
	single := true
	for _, n := range p.nodes {
		if len(p.g.Name(n)) != 1 {
			single = false
			break
		}
	}
	var b strings.Builder
	for i, n := range p.nodes {
		if !single && i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(p.g.Name(n))
	}
	return b.String()
}

// Key returns a canonical identifier for p's ≈-class: the fixed part's
// node sequence plus the mdc. Two paths are Equivalent iff their Keys
// are equal, so a Key names a subobject (Section 3).
func (p Path) Key() string {
	f := p.Fixed()
	b := make([]byte, 0, 4*len(f.nodes)+4)
	for i, n := range f.nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.Mdc()), 10)
	return string(b)
}

// Extend is the paper's ∘ operator (Definition 15), the abstraction of
// path extension on N ∪ {Ω}:
//
//	X ∘ (B→D) = X  if X ≠ Ω
//	          = B  if B→D is a virtual edge
//	          = Ω  otherwise
//
// It satisfies leastVirtual(p·(B→D)) = leastVirtual(p) ∘ (B→D).
func Extend(g *chg.Graph, x chg.ClassID, base, derived chg.ClassID) chg.ClassID {
	if x != chg.Omega {
		return x
	}
	k, ok := edgeKind(g, base, derived)
	if !ok {
		panic(fmt.Sprintf("paths: Extend: %s is not a direct base of %s", g.Name(base), g.Name(derived)))
	}
	if k == chg.Virtual {
		return base
	}
	return chg.Omega
}
