package incremental

import (
	"fmt"

	"cpplookup/internal/chg"
)

// FromGraph builds a workspace holding the same hierarchy as g, with
// identical class ids. Classes are replayed in id order, so every
// direct base must have a smaller id than the class deriving from it
// — true of any graph whose classes were defined bases-first (all the
// hiergen generators) — otherwise an error is returned. Member ids
// are interned in the workspace's own (declaration encounter) order
// and need not match g's.
//
// This is the bridge the edit-storm benchmarks use: generate a large
// hierarchy once, lift it into a mutable workspace, and edit from
// there.
func FromGraph(g *chg.Graph) (*Workspace, error) {
	w := newWorkspace(g.NumClasses(), g.NumMemberNames())
	for i := 0; i < g.NumClasses(); i++ {
		c := chg.ClassID(i)
		bds := make([]BaseDecl, 0, len(g.DirectBases(c)))
		for _, e := range g.DirectBases(c) {
			if e.Base >= c {
				return nil, fmt.Errorf("incremental: FromGraph needs bases-first class ids (class %s has base %s with a larger id)",
					g.Name(c), g.Name(e.Base))
			}
			bds = append(bds, BaseDecl{Class: e.Base, Virtual: e.Kind == chg.Virtual})
		}
		if _, err := w.AddClass(g.Name(c), bds); err != nil {
			return nil, err
		}
		for _, mem := range g.DeclaredMembers(c) {
			if err := w.AddMember(c, mem); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}
