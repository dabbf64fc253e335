package chg

import (
	"fmt"
	"io"
	"strings"
)

// WriteSource renders the hierarchy as the C++ subset accepted by
// internal/cpp/parser, in topological (hence declaration-legal) order.
// Round-tripping a Graph through WriteSource and the parser yields an
// isomorphic Graph; cmd/hiergen uses this as its output format.
func (g *Graph) WriteSource(w io.Writer) error {
	var b strings.Builder
	for _, c := range g.topo {
		cl := &g.classes[c]
		b.WriteString("struct ")
		b.WriteString(cl.name)
		if len(cl.bases) > 0 {
			b.WriteString(" : ")
			for i, e := range cl.bases {
				if i > 0 {
					b.WriteString(", ")
				}
				if e.Kind == Virtual {
					b.WriteString("virtual ")
				}
				b.WriteString(g.classes[e.Base].name)
			}
		}
		b.WriteString(" {")
		if len(cl.decls) > 0 {
			b.WriteString("\n")
			for _, m := range cl.decls {
				b.WriteString("\t")
				b.WriteString(memberSource(m.Member))
				b.WriteString("\n")
			}
		}
		b.WriteString("};\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func memberSource(m Member) string {
	switch m.Kind {
	case Method:
		switch {
		case m.Static:
			return fmt.Sprintf("static void %s();", m.Name)
		case m.Virtual:
			return fmt.Sprintf("virtual void %s();", m.Name)
		default:
			return fmt.Sprintf("void %s();", m.Name)
		}
	case Field:
		if m.Static {
			return fmt.Sprintf("static int %s;", m.Name)
		}
		return fmt.Sprintf("int %s;", m.Name)
	case TypeName:
		return fmt.Sprintf("typedef int %s;", m.Name)
	case Enumerator:
		return fmt.Sprintf("enum { %s };", m.Name)
	}
	panic("chg: unknown member kind")
}

// Stats summarises a hierarchy's shape; the experiment harness prints
// these alongside measurements.
type Stats struct {
	Classes      int
	Edges        int
	VirtualEdges int
	MemberNames  int
	Declarations int
	Roots        int
	Leaves       int
	MaxBases     int // widest base clause
	Depth        int // longest path (edge count)
}

// ComputeStats gathers Stats for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Classes:      g.NumClasses(),
		Edges:        g.NumEdges(),
		VirtualEdges: g.NumVirtualEdges(),
		MemberNames:  g.NumMemberNames(),
		Roots:        len(g.Roots()),
		Leaves:       len(g.Leaves()),
	}
	depth := make([]int, g.NumClasses())
	for _, c := range g.topo {
		cl := &g.classes[c]
		s.Declarations += len(cl.decls)
		if len(cl.bases) > s.MaxBases {
			s.MaxBases = len(cl.bases)
		}
		for _, e := range cl.bases {
			if depth[e.Base]+1 > depth[c] {
				depth[c] = depth[e.Base] + 1
			}
		}
		if depth[c] > s.Depth {
			s.Depth = depth[c]
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("|N|=%d |E|=%d (|Ev|=%d) |M|=%d decls=%d roots=%d leaves=%d maxBases=%d depth=%d",
		s.Classes, s.Edges, s.VirtualEdges, s.MemberNames, s.Declarations, s.Roots, s.Leaves, s.MaxBases, s.Depth)
}
