package engine

import (
	"fmt"

	"cpplookup/internal/core"
	"cpplookup/internal/incremental"
)

// WorkspaceBinding connects a mutable incremental.Workspace to an
// engine name: each Sync republishes the workspace as a new snapshot
// version iff the workspace changed since the last publication. The
// workspace itself remains single-writer (its documented contract);
// the binding is the hand-off point where its edits become visible to
// concurrent readers — in-flight readers keep the version they hold.
//
// The binding does not synchronize access to the workspace: edit and
// Sync from the same goroutine (or serialize them externally), and
// let any number of goroutines query the published snapshots.
type WorkspaceBinding struct {
	e       *Engine
	name    string
	ws      *incremental.Workspace
	lastGen uint64
}

// BindWorkspace registers ws's current hierarchy under name and
// returns the binding together with the first published snapshot.
// The options configure the kernel for every version published
// through the binding.
func (e *Engine) BindWorkspace(name string, ws *incremental.Workspace, opts ...core.Option) (*WorkspaceBinding, *Snapshot, error) {
	if ws == nil {
		return nil, nil, fmt.Errorf("engine: BindWorkspace(%q) with a nil workspace", name)
	}
	g, err := ws.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("engine: freezing workspace for %q: %w", name, err)
	}
	snap, err := e.Register(name, g, opts...)
	if err != nil {
		return nil, nil, err
	}
	return &WorkspaceBinding{e: e, name: name, ws: ws, lastGen: ws.Generation()}, snap, nil
}

// Workspace returns the bound mutable workspace.
func (b *WorkspaceBinding) Workspace() *incremental.Workspace { return b.ws }

// SyncResult describes one Sync: the snapshot now current, whether it
// was republished, and — when the edit log covered the window — the
// exact change since the previous publication, in the two shapes
// incremental consumers want: the invalidation cone (per edited
// member, edited classes ∪ descendants) and the typed edit list
// (class adds included, which the cone by design omits). Cone and
// Edits are nil on a no-op sync and on a cold republish.
type SyncResult struct {
	Snapshot    *Snapshot
	Republished bool
	// Carried is true when the republish seeded the new snapshot from
	// its predecessor's warm cache (the cone was answerable).
	Carried bool
	Cone    []incremental.MemberCone
	Edits   []incremental.Edit
}

// Sync publishes the workspace's current hierarchy if it was edited
// since the last publication, and returns the current snapshot either
// way. The copy-on-write freeze in Workspace.Snapshot makes a no-op
// Sync cheap: no graph is rebuilt and no version is burned.
//
// A republish carries the warm cache forward: the workspace's edit
// log yields the exact invalidation cone since the last publication
// (per edited member name, the edited classes unioned with their
// descendant sets), and Engine.UpdateCarried seeds the new snapshot
// with every predecessor cell outside that cone. Only when the edit
// log no longer covers the window (an extremely long unsynced edit
// storm) does Sync fall back to a cold publish. The carried snapshot
// is behaviourally identical to a cold one — readers cannot tell,
// except through Snapshot.Carry and latency.
func (b *WorkspaceBinding) Sync() (*Snapshot, error) {
	res, err := b.SyncDetail()
	if err != nil {
		return nil, err
	}
	return res.Snapshot, nil
}

// SyncDetail is Sync exposing what changed: incremental consumers
// (a lint session, a replication feed) get the same cone the cache
// carry used plus the typed edits behind it, so they can re-derive
// exactly their affected state instead of re-deriving everything.
func (b *WorkspaceBinding) SyncDetail() (SyncResult, error) {
	gen := b.ws.Generation()
	if gen == b.lastGen {
		snap, ok := b.e.Snapshot(b.name)
		if !ok {
			return SyncResult{}, fmt.Errorf("engine: hierarchy %q disappeared from the engine", b.name)
		}
		return SyncResult{Snapshot: snap}, nil
	}
	g, err := b.ws.Snapshot()
	if err != nil {
		return SyncResult{}, fmt.Errorf("engine: freezing workspace for %q: %w", b.name, err)
	}
	res := SyncResult{Republished: true}
	var snap *Snapshot
	if cone, ok := b.ws.InvalidationConeSince(b.lastGen); ok {
		// Edits and cone come from the same log over the same window,
		// so when the cone is answerable the edit list is too.
		res.Edits, _ = b.ws.EditsSince(b.lastGen)
		res.Cone = cone
		res.Carried = true
		snap, err = b.e.UpdateCarried(b.name, g, cone)
	} else {
		snap, err = b.e.Update(b.name, g)
	}
	if err != nil {
		return SyncResult{}, err
	}
	b.lastGen = gen
	res.Snapshot = snap
	return res, nil
}
