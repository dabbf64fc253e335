// Package engine serves member-lookup queries to concurrent clients.
//
// The algorithm layer (internal/core) separates the pure Figure 8
// propagation step (core.Kernel) from memoization policy; this
// package supplies the policy a server needs: an Engine registers
// named hierarchies and publishes immutable, versioned Snapshots.
// Each Snapshot pairs a chg.Graph with one concurrency-safe memoized
// lookup cache per resolution backend — dense packed cells, readers
// lock-free via one atomic word load per hit, writers filling each
// miss once under a per-member-name shard lock. Updating a name swaps
// in a new Snapshot atomically: in-flight readers keep answering
// against the version they hold, which is how an edit-heavy producer
// (internal/incremental) and many query goroutines coexist without a
// stop-the-world.
package engine

import (
	"fmt"
	"sync"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
)

// Engine is a registry of named hierarchies, each with a current
// published Snapshot. All methods are safe for concurrent use.
type Engine struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // registration order, for deterministic Names
}

type entry struct {
	opts    []core.Option
	version uint64
	snap    *Snapshot
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{entries: make(map[string]*entry)}
}

// Register publishes g under name at version 1 and returns the
// snapshot. The options configure the kernel for this name and are
// reused by every later Update. Registering an already-registered
// name or a nil graph is an error.
func (e *Engine) Register(name string, g *chg.Graph, opts ...core.Option) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: Register(%q) with a nil graph", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.entries[name]; dup {
		return nil, fmt.Errorf("engine: hierarchy %q already registered (use Update to publish a new version)", name)
	}
	ent := &entry{opts: opts, version: 1}
	snap, err := newSnapshot(name, 1, core.NewKernel(g, opts...), nil)
	if err != nil {
		return nil, err
	}
	ent.snap = snap
	e.entries[name] = ent
	e.order = append(e.order, name)
	return ent.snap, nil
}

// Update publishes a new version of name wrapping g, reusing the
// options given at registration, and returns the new snapshot.
// Existing snapshots of earlier versions are untouched: readers
// holding one keep getting answers for the hierarchy they started
// with.
func (e *Engine) Update(name string, g *chg.Graph) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: Update(%q) with a nil graph", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.entries[name]
	if !ok {
		return nil, fmt.Errorf("engine: hierarchy %q is not registered", name)
	}
	ent.version++
	snap, err := newSnapshot(name, ent.version, core.NewKernel(g, ent.opts...), nil)
	if err != nil {
		return nil, err
	}
	ent.snap = snap
	return ent.snap, nil
}

// Snapshot returns the current snapshot published under name.
func (e *Engine) Snapshot(name string) (*Snapshot, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ent, ok := e.entries[name]
	if !ok {
		return nil, false
	}
	return ent.snap, true
}

// Names returns the registered hierarchy names in registration order.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}
