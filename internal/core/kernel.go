package core

import (
	"cpplookup/internal/chg"
)

// Kernel is the pure per-entry propagation step of Figure 8: given a
// class, a member name, and the lookup results at the class's direct
// bases, resolve computes lookup[c,m]. It holds only immutable
// configuration (the graph and the option flags), never intermediate
// state, so one Kernel may be shared by any number of goroutines.
//
// Memoization policy lives in the callers: FillRun is the paper's
// memoising lazy variant, filling one member's run of packed cells,
// which Analyzer drives from a single goroutine and internal/engine's
// Snapshot under per-member shard locks; Table construction adds the
// eager topological tabulation. All of them drive this same kernel, so
// the algorithm exists exactly once.
type Kernel struct {
	g          *chg.Graph
	pool       *Pool
	trackPaths bool
	staticRule bool
	extraSems  []SemanticsID
}

// NewKernel returns a kernel for g. It panics if g is nil: a kernel
// without a hierarchy cannot answer anything, and catching the
// mistake at construction beats a nil dereference mid-query.
func NewKernel(g *chg.Graph, opts ...Option) *Kernel {
	if g == nil {
		panic("core: NewKernel requires a non-nil *chg.Graph (build one with chg.NewBuilder().Build())")
	}
	k := &Kernel{g: g, pool: NewPool()}
	for _, o := range opts {
		o(k)
	}
	return k
}

// Graph returns the underlying CHG.
func (k *Kernel) Graph() *chg.Graph { return k.g }

// Pool returns the kernel's payload pool: every Result this kernel
// resolves interns its rare payload (Blue sets, static coverage,
// tracked paths) here, one pool per kernel — hence per analyzer, per
// table, per engine snapshot. The pool is safe for concurrent use.
func (k *Kernel) Pool() *Pool { return k.pool }

// TrackPaths reports whether red results carry full definition paths.
func (k *Kernel) TrackPaths() bool { return k.trackPaths }

// StaticRule reports whether the Definitions 16–17 extension is on.
func (k *Kernel) StaticRule() bool { return k.staticRule }

// ExtraSemantics returns the additional resolution backends requested
// at construction (WithSemantics), deduplicated, with the implicit
// dominance backend (this kernel itself) filtered out. Consumers —
// the engine's snapshot columns — materialize one cache column per
// returned id. Shared slice; do not modify.
func (k *Kernel) ExtraSemantics() []SemanticsID { return k.extraSems }

// extendAbs is the ∘ operator of Definition 15 on N ∪ {Ω}:
// V ∘ (X→C) keeps V if it is already a class, becomes X if the edge
// is virtual, and stays Ω otherwise.
func extendAbs(v chg.ClassID, base chg.ClassID, kind chg.Kind) chg.ClassID {
	if v != chg.Omega {
		return v
	}
	if kind == chg.Virtual {
		return base
	}
	return chg.Omega
}

// groupDominates is the Lemma 4 test (lines [1]–[3] of Figure 8)
// lifted to definition groups: the group with declaring class l1 and
// red abstractions red1 dominates the group whose coverage is cover2
// iff every element of cover2 is dominated — (1) it is a virtual base
// of l1 (sound for any definition with that ldc), or (2) it equals
// (≠ Ω) one of the dominator's *red* abstractions (Lemma 4's equality
// condition, whose proof requires the dominator to be red). Without
// the static rule all sets are singletons and this is exactly the
// paper's test.
func (k *Kernel) groupDominates(l1 chg.ClassID, red1, cover2 []chg.ClassID) bool {
	for _, v2 := range cover2 {
		if k.g.IsVirtualBase(v2, l1) {
			continue
		}
		if v2 != chg.Omega && containsV(red1, v2) {
			continue
		}
		return false
	}
	return true
}

func containsV(s []chg.ClassID, v chg.ClassID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// insertV adds v to a sorted unique slice.
func insertV(s []chg.ClassID, v chg.ClassID) []chg.ClassID {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func (k *Kernel) staticIn(c chg.ClassID, m chg.MemberID) bool {
	mem, ok := k.g.DeclaredMember(c, m)
	return ok && mem.StaticForLookup()
}

// blueDef converts an abstraction to its blue-set form: without the
// static rule the paper propagates only leastVirtual values for blue
// definitions, so L is dropped (set to Ω); with the static rule the
// pair is kept.
func (k *Kernel) blueDef(d Def) Def {
	if !k.staticRule {
		d.L = chg.Omega
	}
	return d
}

// resolveScratch holds the reusable temporaries of resolve: the
// rotating coverage/red-set buffers, the blue accumulation set, the
// kill partition, and the path buffer. A zero scratch is valid (every
// buffer starts nil and grows on demand); a scratch reused across
// calls keeps its capacity, which is what makes the batched table
// build allocation-free in the steady state. Nothing a resolve call
// returns aliases its scratch — rare payloads are interned (copied)
// into the pool before the Result exists — so reusing a scratch for
// the next call never corrupts an earlier result.
//
// A scratch is single-goroutine state; concurrent resolve calls each
// need their own, and so does each recursion depth of a lazy fill
// (FillRun's pooled frames).
type resolveScratch struct {
	cover [2][]chg.ClassID // rotating candCover/dCover buffers
	redv  [2][]chg.ClassID // rotating candRed/dRed buffers
	blue  []Def
	surv  []Def
	kill  []Def
	path  []chg.ClassID
}

// appendBlue adds d to the toBeDominated set unless an equivalent
// entry is present (V-equality without the static rule, (L,V)-equality
// with it).
func appendBlue(blue []Def, d Def, staticRule bool) []Def {
	for _, e := range blue {
		if e.V == d.V && (!staticRule || e.L == d.L) {
			return blue
		}
	}
	return append(blue, d)
}

// resolve computes lookup[c,m] from the results at c's direct bases —
// the body of Figure 8's doLookup loop (lines [11]–[45]). get supplies
// lookup[X,m] for each direct base X; Undefined stands for
// "m ∉ Members[X]". sc holds the call's reusable temporaries: the
// batched table build passes one long-lived scratch per worker and
// FillRun one per recursion depth, so steady-state entry fills
// allocate nothing. resolve touches no kernel state beyond the
// immutable configuration, so concurrent calls are safe as long as
// each has its own scratch and each call's get function is safe.
func (k *Kernel) resolve(c chg.ClassID, m chg.MemberID, get func(chg.ClassID) Result, sc *resolveScratch) Result {
	return k.resolveDeclared(c, m, k.g.Declares(c, m), get, sc)
}

// resolveDeclared is resolve with the line-[12] "c declares m" test
// precomputed — the batched build answers it for a whole 64-member
// block from one scan of c's declarations instead of a scan per entry.
func (k *Kernel) resolveDeclared(c chg.ClassID, m chg.MemberID, declared bool, get func(chg.ClassID) Result, sc *resolveScratch) Result {
	// Line [12]: a definition generated at c trivially dominates
	// everything that reaches c.
	if declared {
		d := Def{L: c, V: chg.Omega}
		if k.trackPaths {
			sc.path = append(sc.path[:0], c)
			return k.pool.RedDetailed(d, nil, nil, sc.path)
		}
		return k.pool.Red(d)
	}

	blue := sc.blue[:0] // toBeDominated
	// Work on local copies of the rotating buffer pair: slice-header
	// stores to a stack array take no GC write barrier, unlike stores
	// into the heap-resident scratch. Stored back before every return.
	cov := sc.cover
	redv := sc.redv

	nocandidate := true
	found := false
	var candL chg.ClassID
	var candCover []chg.ClassID // every copy's abstraction (sorted unique)
	var candRed []chg.ClassID   // abstractions of genuinely red copies
	var candPath []chg.ClassID
	// Buffer rotation invariant: a live candidate's cover/red sets
	// occupy pair cur^1; pair cur is free for the next base's sets.
	// Taking over the freshly built pair flips cur.
	cur := 0

	for _, e := range k.g.DirectBases(c) {
		r := get(e.Base)
		switch r.Kind() {
		case Undefined:
			continue
		case RedKind:
			found = true
			rL := r.Def().L
			dCover := cov[cur][:0]
			dRed := redv[cur][:0]
			for i, n := 0, r.vsetLen(); i < n; i++ {
				dCover = insertV(dCover, extendAbs(r.vsetAt(i), e.Base, e.Kind))
			}
			for i, n := 0, r.redsetLen(); i < n; i++ {
				dRed = insertV(dRed, extendAbs(r.redsetAt(i), e.Base, e.Kind))
			}
			cov[cur], redv[cur] = dCover, dRed
			switch {
			case nocandidate:
				nocandidate = false
				candL, candCover, candRed = rL, dCover, dRed
				candPath = k.extendPath(sc, r.Path(), c)
				cur ^= 1
			case k.staticRule && rL == candL && k.staticIn(candL, m):
				// Definition 17: the same static member reached as
				// another subobject copy — merge, keeping every
				// copy's abstraction for later dominance tests.
				for _, v := range dCover {
					candCover = insertV(candCover, v)
				}
				for _, v := range dRed {
					candRed = insertV(candRed, v)
				}
				cov[cur^1], redv[cur^1] = candCover, candRed
			case k.groupDominates(rL, dRed, candCover):
				candL, candCover, candRed = rL, dCover, dRed
				candPath = k.extendPath(sc, r.Path(), c)
				cur ^= 1
			case !k.groupDominates(candL, candRed, dCover):
				// Lines [25]–[27]: neither dominates; both become blue.
				for _, v := range candCover {
					blue = appendBlue(blue, k.blueDef(Def{L: candL, V: v}), k.staticRule)
				}
				for _, v := range dCover {
					blue = appendBlue(blue, k.blueDef(Def{L: rL, V: v}), k.staticRule)
				}
				nocandidate = true
				candPath = nil
			}
		case BlueKind:
			found = true
			for _, bd := range r.Blue() {
				blue = appendBlue(blue, Def{L: bd.L, V: extendAbs(bd.V, e.Base, e.Kind)}, k.staticRule)
			}
		}
	}
	sc.blue = blue
	sc.cover, sc.redv = cov, redv

	if !found {
		return UndefinedResult()
	}
	if nocandidate {
		sortDefs(blue)
		return k.pool.Blue(blue)
	}

	// Lines [37]–[40]: try to kill every blue definition with the red
	// candidate group. A blue absorbed by the same-static-member rule
	// joins the group's coverage: any later winner must dominate that
	// copy too (but it gains no equality-based kill power — it was
	// not red).
	surviving := sc.surv[:0]
	killed := sc.kill[:0]
	for _, b := range blue {
		dead := false
		switch {
		case k.g.IsVirtualBase(b.V, candL):
			dead = true
		case b.V != chg.Omega && containsV(candRed, b.V):
			dead = true
		case k.staticRule && b.L == candL && b.L != chg.Omega && k.staticIn(candL, m):
			candCover = insertV(candCover, b.V)
			dead = true
		}
		if dead {
			killed = append(killed, b)
		} else {
			surviving = append(surviving, b)
		}
	}
	sc.surv, sc.kill = surviving, killed
	sc.cover[cur^1] = candCover

	// Static-rule refinement: a blue definition killed because it is
	// "the same static member" as the candidate (condition 3) retains
	// its own dominating power, so survivors dominated by any killed
	// definition through the always-sound virtual-base condition are
	// killed too, to fixpoint. Without this, a definition dominated
	// only by an equivalent-static copy of the candidate would leak
	// through and report a false ambiguity (cf. Definition 17).
	if k.staticRule && len(killed) > 0 && len(surviving) > 0 {
		killers := append([]Def{{L: candL, V: candCover[0]}}, killed...)
		for changed := true; changed; {
			changed = false
			next := surviving[:0]
			for _, b := range surviving {
				dead := false
				for _, kd := range killers {
					if kd.L != chg.Omega && k.g.IsVirtualBase(b.V, kd.L) {
						dead = true
						break
					}
				}
				if dead {
					killers = append(killers, b)
					changed = true
				} else {
					next = append(next, b)
				}
			}
			surviving = next
		}
	}

	if len(surviving) == 0 {
		d := Def{L: candL, V: candCover[0]}
		var staticSet, staticRed []chg.ClassID
		if len(candCover) > 1 {
			staticSet = candCover
		}
		if len(candRed) != len(candCover) {
			staticRed = candRed
		}
		return k.pool.RedDetailed(d, staticSet, staticRed, candPath)
	}
	// Line [43]: the candidate joins the ambiguity set (as a union —
	// entries may already be present).
	for _, v := range candCover {
		cb := k.blueDef(Def{L: candL, V: v})
		dup := false
		for _, b := range surviving {
			if b.V == cb.V && (!k.staticRule || b.L == cb.L) {
				dup = true
				break
			}
		}
		if !dup {
			surviving = append(surviving, cb)
		}
	}
	sortDefs(surviving)
	return k.pool.Blue(surviving)
}

// extendPath appends c to path p in the scratch path buffer. At most
// one candidate path is live at a time (a takeover makes the previous
// one dead), so one buffer per scratch suffices; the pool copies it
// at interning time.
func (k *Kernel) extendPath(sc *resolveScratch, p []chg.ClassID, c chg.ClassID) []chg.ClassID {
	if !k.trackPaths {
		return nil
	}
	sc.path = append(append(sc.path[:0], p...), c)
	return sc.path
}
