package main

import (
	"fmt"
	"runtime"
	"time"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/hiergen"
	"cpplookup/internal/incremental"
)

// runEdit is the IDE edit→requery loop: each round applies a batch of
// hierarchy edits to a workspace bound to the engine, republishes it
// (carrying the warm cache past the invalidation cone) and requeries.
// It writes the engine cells serve only reads — carry copy, cone
// zeroing, growth on class adds — so a cell layout that speeds serve
// but slows carry shows here.
func runEdit(env *runEnv) (*result, error) {
	sz, tr := env.sz, env.tr
	g := hiergen.Giant(giantConfig(sz.classes))
	warm := hiergen.CallSites(g, sz.editWarm, env.seed+1)
	script := hiergen.EditScript(g, sz.editRounds*editOps, env.seed+3)
	background := hiergen.CallSites(g, sz.editRounds*editRequery/2, env.seed+4)
	fp := newInputHash()
	if err := fp.graph(g); err != nil {
		return nil, err
	}
	fp.sites(warm)
	for _, op := range script {
		fp.text(op.String())
	}
	fp.sites(background)

	r := &result{Fingerprint: fp.sum(), Metrics: map[string]float64{}}
	var load loadStats
	var e *editSession
	var carried, invalidated, coneClasses, compactions, cold, requeryFills int
	var pause uint64
	answers := make([]core.Result, editRequery)
	for pass := range sz.editPasses {
		for range editSetupReps {
			e = nil
			err := load.setup(func() (err error) {
				e, err = editSetup(tr, g, warm)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		pauseBefore := gcPauseNs()
		for round := range sz.editRounds {
			var fills *int
			if tr != nil && pass == 0 {
				fills = &requeryFills
			}
			req := tr.beginRequest(round, "edit.round")
			out := e.round(tr, script[round*editOps:(round+1)*editOps],
				background[round*editRequery/2:(round+1)*editRequery/2], answers, fills)
			tr.endRequest(req)
			load.request(out.elapsed, editOps)
			r.Attempted++
			if out.err != nil {
				r.Errors++
				r.Failed++
				fmt.Fprintf(env.log, "edit: round %d: %v\n", round, out.err)
			}
			if pass > 0 || out.res == nil {
				continue
			}
			c := out.res.Snapshot.Carry()
			carried += c.Carried
			invalidated += c.Invalidated
			for _, cone := range out.res.Cone {
				coneClasses += cone.Classes.Count()
			}
			if c.PoolCompacted {
				compactions++
			}
			if out.res.Republished && !out.res.Carried {
				cold++
			}
			if round%editCheckEvery == 0 {
				r.Checked++
				if !matchesCold(e.snap.Graph(), out.queries, answers) {
					r.Mismatches++
					if out.err == nil {
						r.Failed++
					}
				}
			}
		}
		load.endPass()
		if pass == 0 {
			pause = gcPauseNs() - pauseBefore
		}
	}
	load.fill(r, liveHeap())
	runtime.KeepAlive(e)

	if tr != nil {
		s := summarize(tr.spans)
		rounds := float64(sz.editRounds)
		r.Layers = map[string]float64{
			"engine.sync.ms":                s.p50ms("engine.sync"), // no child spans: all self time
			"engine.carry.carried":          float64(carried) / rounds,
			"engine.carry.invalidated":      float64(invalidated) / rounds,
			"engine.carry.cone_classes":     float64(coneClasses) / rounds,
			"engine.carry.pool_compactions": float64(compactions),
			"engine.carry.cold_republishes": float64(cold),
			"engine.requery.ms":             s.p50ms("engine.requery"),
			"engine.requery.fills":          float64(requeryFills) / rounds,
			"incremental.edit.us":           s.p50ms("incremental.edit") * 1e3,
			"incremental.freeze.ms":         s.p50ms("incremental.freeze"),
			"core.pool.payloads":            float64(e.snap.Pool().Len()),
			"runtime.gc_pause_ms":           ms(int64(pause)),
		}
	}
	return r, nil
}

// editSession is one pass's serving state: a workspace bound to an
// engine, and the snapshot it last published.
type editSession struct {
	ws   *incremental.Workspace
	b    *engine.WorkspaceBinding
	snap *engine.Snapshot
}

// editSetup binds a fresh workspace over g to a new engine and warms the
// first published snapshot.
func editSetup(tr *tracer, g *chg.Graph, warm []hiergen.CallSite) (*editSession, error) {
	sp := tr.begin("incremental.from_graph")
	ws, err := incremental.FromGraph(g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.bind")
	b, snap, err := engine.New().BindWorkspace("edit", ws)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.warm")
	for _, q := range warm {
		snap.Lookup(q.Class, q.Member)
	}
	tr.end(sp)
	return &editSession{ws: ws, b: b, snap: snap}, nil
}

// roundResult is what one edit round did.
type roundResult struct {
	elapsed time.Duration      // the timed layer calls
	res     *engine.SyncResult // nil when the republish failed
	queries []hiergen.CallSite // the requery, answered into the caller's slice
	err     error              // the round's first edit, freeze or sync error
}

// round applies ops, freezes and republishes the workspace and requeries
// the new snapshot; only those calls are timed. An edit that fails is
// skipped and the round goes on, as an editor's would; a republish that
// fails ends the round without a requery. With fills set, it adds the
// cells the requery filled.
func (e *editSession) round(tr *tracer, ops []hiergen.EditOp, background []hiergen.CallSite, answers []core.Result, fills *int) roundResult {
	var out roundResult
	start := time.Now()
	for _, op := range ops {
		sp := tr.begin("incremental.edit")
		err := applyEdit(e.ws, op)
		tr.end(sp)
		if err != nil && out.err == nil {
			out.err = fmt.Errorf("%s: %w", op, err)
		}
	}
	sp := tr.begin("incremental.freeze")
	_, err := e.ws.Snapshot()
	tr.end(sp)
	if err != nil && out.err == nil {
		out.err = err
	}
	sp = tr.begin("engine.sync")
	res, err := e.b.SyncDetail()
	tr.end(sp)
	out.elapsed = time.Since(start)
	if err != nil {
		if out.err == nil {
			out.err = err
		}
		return out
	}
	out.res, e.snap = &res, res.Snapshot

	out.queries = requeryQueries(e.snap.Graph(), ops, background)
	var before int
	if fills != nil {
		before = e.snap.CachedEntries()
	}
	start = time.Now()
	sp = tr.begin("engine.requery")
	for k, q := range out.queries {
		answers[k] = e.snap.Lookup(q.Class, q.Member)
	}
	tr.end(sp)
	out.elapsed += time.Since(start)
	if fills != nil {
		*fills += e.snap.CachedEntries() - before
	}
	return out
}

// applyEdit replays one scripted edit the way chglint -session does:
// a toggle removes the member when the class declares it and adds it
// otherwise.
func applyEdit(ws *incremental.Workspace, op hiergen.EditOp) error {
	if op.IsClassAdd() {
		bases := make([]incremental.BaseDecl, 0, len(op.BaseNames))
		for _, name := range op.BaseNames {
			id, ok := ws.ID(name)
			if !ok {
				return fmt.Errorf("unknown base class %q", name)
			}
			bases = append(bases, incremental.BaseDecl{Class: id})
		}
		_, err := ws.AddClass(op.NewClass, bases)
		return err
	}
	c, ok := ws.ID(op.Class)
	if !ok {
		return fmt.Errorf("unknown class %q", op.Class)
	}
	if ws.DeclaresName(c, op.Member) {
		return ws.RemoveMember(c, op.Member)
	}
	return ws.AddMember(c, chg.Member{Name: op.Member, Kind: chg.Method})
}

// requeryQueries builds a round's requery: the round's edited members,
// first at the edited classes themselves and then at the background
// traffic's classes, followed by the background traffic. A class add
// is queried with the background traffic's members. An edit that named
// a class or member the graph lacks — one that failed — is left out.
func requeryQueries(g *chg.Graph, ops []hiergen.EditOp, background []hiergen.CallSite) []hiergen.CallSite {
	edited := make([]hiergen.CallSite, 0, len(ops))
	for i, op := range ops {
		var c chg.ClassID
		m, ok := background[i%len(background)].Member, true
		if op.IsClassAdd() {
			c, ok = g.ID(op.NewClass)
		} else if c, ok = g.ID(op.Class); ok {
			m, ok = g.MemberID(op.Member)
		}
		if ok {
			edited = append(edited, hiergen.CallSite{Class: c, Member: m})
		}
	}
	qs := make([]hiergen.CallSite, 0, 2*len(background))
	for k, q := range background {
		if len(edited) > 0 {
			e := edited[k%len(edited)]
			if k < len(edited) {
				q.Class = e.Class
			}
			q.Member = e.Member
		}
		qs = append(qs, q)
	}
	return append(qs, background...)
}

// matchesCold reports whether answers equal a cold snapshot's lookups of
// the same frozen graph.
func matchesCold(g *chg.Graph, qs []hiergen.CallSite, answers []core.Result) bool {
	cold := engine.NewSnapshot(g)
	for k, q := range qs {
		if !answers[k].Equal(cold.Lookup(q.Class, q.Member)) {
			return false
		}
	}
	return true
}
