package hiergen

import (
	"fmt"
	"math/rand"

	"cpplookup/internal/chg"
)

// GiantConfig parameterises Giant, the scale-experiment generator. All
// counts are exact except Decls, which is an upper bound (collisions
// with already-declared (class, name) pairs are skipped, never
// retried, so Σ|declared| ≤ Interfaces·FatWidth + Decls and generation
// stays O(Classes + Decls)).
type GiantConfig struct {
	Classes     int     // total classes, interfaces included
	MemberNames int     // member-name universe (m0, m1, …)
	Interfaces  int     // fat interface roots
	FatWidth    int     // names each interface declares (from the low-id range)
	TowerHeight int     // diamonds per tower (3·height+1 classes each)
	ChainLen    int     // override-chain classes hung off each tower
	Decls       int     // power-law member declarations spread over the body
	VirtualProb float64 // probability a tower attaches to its anchor virtually
	Seed        int64
}

// GiantDefaults returns the scale-experiment shape at a given class
// count: a fat interface layer (~1% of classes, each declaring a wide
// slice of the low member ids), deep diamond towers over it, long
// override chains off each tower, and one member declaration per class
// on average, Zipf-distributed over the name universe so a few hot
// names are declared everywhere and the long tail almost nowhere —
// the shape of real large C++ code bases.
func GiantDefaults(classes int) GiantConfig {
	ifaces := classes / 100
	if ifaces < 4 {
		ifaces = 4
	}
	return GiantConfig{
		Classes:     classes,
		MemberNames: classes, // |M| tracks |N|: the paper's table is |N|·avg members
		Interfaces:  ifaces,
		FatWidth:    24,
		TowerHeight: 6,
		ChainLen:    12,
		Decls:       classes,
		VirtualProb: 0.35,
		Seed:        1997,
	}
}

// Giant builds a deterministic giant hierarchy: `Interfaces` fat roots,
// then a body of diamond towers (each anchored on an earlier class,
// attached virtually with VirtualProb — the Section 7.1 shape that
// makes subobject graphs explode while the CHG stays linear) with an
// override chain off each apex, repeated until Classes is reached.
// Base ids always precede derived ids, so the result is acyclic.
// Member declarations beyond the interface layer are power-law
// (Zipf s=1.3) over the name universe and uniform over classes.
func Giant(cfg GiantConfig) *chg.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := chg.NewBuilder()
	// Pre-intern every member name in id order so MemberID(k) == k —
	// the id stability the scale experiments' edit scripts rely on.
	for m := 0; m < cfg.MemberNames; m++ {
		b.MemberName(fmt.Sprintf("m%d", m))
	}

	ids := make([]chg.ClassID, 0, cfg.Classes)
	addClass := func(name string) chg.ClassID {
		id := b.Class(name)
		ids = append(ids, id)
		return id
	}

	nIfaces := cfg.Interfaces
	if nIfaces > cfg.Classes {
		nIfaces = cfg.Classes
	}
	for i := 0; i < nIfaces; i++ {
		iface := addClass(fmt.Sprintf("I%d", i))
		for w := 0; w < cfg.FatWidth && w < cfg.MemberNames; w++ {
			// Overlapping windows: adjacent interfaces share half their
			// names, so joins over several interfaces see real conflicts.
			m := (i*cfg.FatWidth/2 + w) % cfg.MemberNames
			b.Method(iface, fmt.Sprintf("m%d", m))
		}
	}

	kind := func() chg.Kind {
		if rng.Float64() < cfg.VirtualProb {
			return chg.Virtual
		}
		return chg.NonVirtual
	}
	// Body: towers + chains until the class budget is spent. Anchors
	// are biased toward recent classes (rng.Intn over the last half)
	// so depth accumulates instead of producing a flat forest.
	tower := 0
	for len(ids) < cfg.Classes {
		anchorPool := len(ids)
		anchor := ids[anchorPool/2+rng.Intn((anchorPool+1)/2)]
		atk := kind()
		prev := anchor
		for d := 0; d < cfg.TowerHeight && len(ids)+3 <= cfg.Classes; d++ {
			x := addClass(fmt.Sprintf("T%d_X%d", tower, d))
			y := addClass(fmt.Sprintf("T%d_Y%d", tower, d))
			l := addClass(fmt.Sprintf("T%d_L%d", tower, d))
			ek := chg.NonVirtual
			if d == 0 {
				ek = atk // sparse virtual attachment at the tower base
			}
			b.Base(x, prev, ek)
			b.Base(y, prev, ek)
			b.Base(l, x, chg.NonVirtual)
			b.Base(l, y, chg.NonVirtual)
			// Occasionally cross-link a level into the interface layer.
			if nIfaces > 0 && rng.Float64() < 0.2 {
				b.Base(l, ids[rng.Intn(nIfaces)], chg.Virtual)
			}
			prev = l
		}
		for c := 0; c < cfg.ChainLen && len(ids) < cfg.Classes; c++ {
			nxt := addClass(fmt.Sprintf("T%d_C%d", tower, c))
			b.Base(nxt, prev, chg.NonVirtual)
			prev = nxt
		}
		if len(ids) == anchorPool {
			// Budget too small for even one diamond level: fill with a chain.
			nxt := addClass(fmt.Sprintf("F%d", len(ids)))
			b.Base(nxt, anchor, chg.NonVirtual)
		}
		tower++
	}

	// Power-law declarations over the body: Zipf-ranked member names
	// (a few hot names declared in thousands of classes, a long tail
	// declared once or twice), uniform classes, collisions skipped.
	if cfg.Decls > 0 && cfg.MemberNames > 0 && len(ids) > nIfaces {
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(cfg.MemberNames-1))
		seen := make(map[uint64]bool, cfg.Decls)
		for d := 0; d < cfg.Decls; d++ {
			// Body classes only — the interface layer's declarations are
			// fixed, and colliding with them is a builder error.
			c := nIfaces + rng.Intn(len(ids)-nIfaces)
			m := zipf.Uint64()
			key := uint64(c)*uint64(cfg.MemberNames) + m
			if seen[key] {
				continue
			}
			seen[key] = true
			b.Member(ids[c], chg.Member{
				Name:   fmt.Sprintf("m%d", m),
				Kind:   chg.Method,
				Static: rng.Float64() < 0.1,
			})
		}
	}
	return b.MustBuild()
}
