package chg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the CHG in Graphviz DOT form, following the paper's
// drawing convention: solid edges for non-virtual inheritance, dashed
// edges for virtual inheritance, arrows pointing from base to derived,
// and each class labelled with the members it declares.
func (g *Graph) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n")
	for i := range g.classes {
		c := &g.classes[i]
		label := c.name
		if len(c.decls) > 0 {
			names := make([]string, len(c.decls))
			for j, m := range c.decls {
				if m.StaticForLookup() {
					names[j] = "static " + m.Name
				} else {
					names[j] = m.Name + "()"
				}
			}
			label += "\\n" + strings.Join(names, ", ")
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", c.name, label)
	}
	for i := range g.classes {
		for _, e := range g.classes[i].bases {
			style := "solid"
			if e.Kind == Virtual {
				style = "dashed"
			}
			fmt.Fprintf(&b, "  %q -> %q [style=%s];\n", g.classes[e.Base].name, g.classes[i].name, style)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
