// Package cpplookup is a Go implementation of the member lookup
// algorithm for C++ from G. Ramalingam and Harini Srinivasan, "A
// Member Lookup Algorithm for C++", PLDI 1997 — together with every
// substrate the paper builds on or compares against: the class
// hierarchy graph, the path formalism and its ≈-equivalence, the
// Rossie–Friedman subobject graph, the g++ 2.7.2.1 baseline, a C++
// subset front end, access control, vtable construction, and class
// hierarchy slicing.
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs. The implementation lives in
// internal/ packages, one per subsystem (see DESIGN.md for the map).
//
// # Quick start
//
//	b := cpplookup.NewBuilder()
//	base := b.Class("Base")
//	derived := b.Class("Derived")
//	b.Base(derived, base, cpplookup.Virtual)
//	b.Method(base, "f")
//	g, err := b.Build()
//	...
//	a := cpplookup.NewAnalyzer(g, cpplookup.WithTrackPaths())
//	r := a.LookupByName("Derived", "f")   // red (Base, Base)
//
// Or run the whole front end over C++-subset source:
//
//	unit, err := cpplookup.AnalyzeSource(src)
//	for _, res := range unit.Resolutions { ... }
package cpplookup

import (
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/devirt"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/interp"
	"cpplookup/internal/layout"
	"cpplookup/internal/lint"
)

// Class hierarchy graph types (see internal/chg).
type (
	// Graph is an immutable class hierarchy graph.
	Graph = chg.Graph
	// Builder accumulates classes, edges, and members into a Graph.
	Builder = chg.Builder
	// ClassID identifies a class in a Graph.
	ClassID = chg.ClassID
	// MemberID identifies an interned member name.
	MemberID = chg.MemberID
	// Member is one directly declared class member.
	Member = chg.Member
	// Edge is a direct-inheritance relation.
	Edge = chg.Edge
	// Kind distinguishes virtual from non-virtual inheritance.
	Kind = chg.Kind
	// MemberKind classifies members (method, field, type, enumerator).
	MemberKind = chg.MemberKind
)

// Inheritance edge kinds.
const (
	NonVirtual = chg.NonVirtual
	Virtual    = chg.Virtual
)

// Member kinds.
const (
	Method     = chg.Method
	Field      = chg.Field
	TypeName   = chg.TypeName
	Enumerator = chg.Enumerator
)

// Omega is the paper's Ω sentinel in the leastVirtual abstract domain.
const Omega = chg.Omega

// NewBuilder returns an empty hierarchy builder.
func NewBuilder() *Builder { return chg.NewBuilder() }

// Lookup algorithm types (see internal/core).
type (
	// Analyzer runs the paper's lookup algorithm over one Graph.
	Analyzer = core.Analyzer
	// Table is the eagerly tabulated lookup function.
	Table = core.Table
	// Result is a lookup outcome: red (unambiguous), blue
	// (ambiguous), or undefined (no such member). Read it through its
	// accessors (Kind, Def, Blue, StaticSet, Path) and compare with
	// Result.Equal; its storage form is a packed word-sized Cell.
	Result = core.Result
	// Cell is the packed uint64 storage form of a Result.
	Cell = core.Cell
	// Pool interns the rare payload-carrying results behind Cells.
	Pool = core.Pool
	// Def is the (ldc, leastVirtual) abstraction of a definition.
	Def = core.Def
	// Option configures an Analyzer.
	Option = core.Option
)

// Result kinds. Fail is produced only by non-dominance backends: C3
// when the class has no linearization, the gxx baseline when its
// subobject graph exceeds the configured bound.
const (
	Undefined = core.Undefined
	Red       = core.RedKind
	Blue      = core.BlueKind
	Fail      = core.FailKind
)

// SemanticsID names a resolution backend: the paper's dominance
// lookup (the default everywhere), C3/MRO linearization, or the g++
// 2.7.2.1 breadth-first baseline.
type SemanticsID = core.SemanticsID

// The registered resolution backends.
const (
	SemDominance = core.SemDominance
	SemC3        = core.SemC3
	SemGxx       = core.SemGxx
)

// NewAnalyzer returns a lookup analyzer for g. An Analyzer is
// confined to one goroutine; to serve concurrent queries, use
// NewEngine/NewSnapshot instead.
func NewAnalyzer(g *Graph, opts ...Option) *Analyzer { return core.New(g, opts...) }

// WithTrackPaths makes red results carry the full definition path.
func WithTrackPaths() Option { return core.WithTrackPaths() }

// WithStaticRule enables the static-member extension (Defs. 16–17).
func WithStaticRule() Option { return core.WithStaticRule() }

// WithSemantics gives a Snapshot one extra lock-free cache column per
// listed backend, answering the same lookups under that backend's
// rules (read them with Snapshot.LookupSem / Snapshot.TableSem; the
// dominance column is always present). The columns share the
// snapshot's payload pool and are carried warm across republishes.
func WithSemantics(ids ...SemanticsID) Option { return core.WithSemantics(ids...) }

// Concurrent query engine (see internal/engine).
type (
	// Engine registers named hierarchies and publishes immutable,
	// versioned Snapshots; all methods are safe for concurrent use.
	Engine = engine.Engine
	// Snapshot is one immutable published view of a hierarchy with a
	// concurrency-safe memoized lookup cache. Any number of goroutines
	// may call Lookup/LookupByName on one Snapshot.
	Snapshot = engine.Snapshot
	// WorkspaceBinding republishes an incremental workspace through an
	// engine as new snapshot versions.
	WorkspaceBinding = engine.WorkspaceBinding
)

// NewEngine returns an empty concurrent query engine.
func NewEngine() *Engine { return engine.New() }

// NewSnapshot wraps g in a standalone concurrency-safe snapshot
// without registering it in an engine.
func NewSnapshot(g *Graph, opts ...Option) *Snapshot { return engine.NewSnapshot(g, opts...) }

// Frontend types (see internal/cpp/sema).
type (
	// Unit is an analyzed C++-subset translation unit.
	Unit = sema.Unit
	// Resolution records the outcome of one member access.
	Resolution = sema.Resolution
	// Diagnostic is one front-end finding.
	Diagnostic = sema.Diagnostic
)

// AnalyzeSource parses and analyzes a C++-subset translation unit:
// it builds the hierarchy, resolves every member access with the
// lookup algorithm, and applies access control.
func AnalyzeSource(src string) (*Unit, error) { return sema.AnalyzeSource(src) }

// Hierarchy linting (see internal/lint and internal/diag).
type (
	// LintDiagnostic is one finding of the whole-hierarchy linter,
	// with severity, rule ID, optional source position, and a
	// machine-checkable witness.
	LintDiagnostic = diag.Diagnostic
	// LintWitness is the evidence attached to a lint finding.
	LintWitness = diag.Witness
	// LintOptions configures a Lint run (rule selection, parallelism,
	// source positions).
	LintOptions = lint.Options
)

// Lint runs every hierarchy rule over g — ambiguities with
// conflicting-path witnesses, dominance shadowing, g++ 2.7.2.1
// divergences (Figure 9), non-virtual diamonds, redundant edges, dead
// members, C3 linearization failures and dominance-vs-MRO divergences
// — and returns the findings in canonical order. Use
// LintOptions.Rules to restrict the rule set and
// LintOptions.Semantics to gate the cross-backend rules; the
// cmd/chglint command wraps this with text, JSON, and SARIF output.
func Lint(g *Graph, opts LintOptions) ([]LintDiagnostic, error) {
	return lint.Run(engine.NewSnapshot(g, core.WithStaticRule(), core.WithTrackPaths()), opts)
}

// Devirtualization (see internal/devirt).
type (
	// Site is one virtual call site: the receiver's static type and
	// the called member.
	Site = devirt.Site
	// DevirtResolution is a call site's class-hierarchy-analysis
	// answer: the distinct defining classes the call can reach across
	// the static type's descendant cone. One target = monomorphic.
	DevirtResolution = devirt.Resolution
	// DevirtResolver resolves call sites against a served snapshot,
	// deduplicating site streams and computing each member's target
	// sets bottom-up over the union of the sites' cones.
	DevirtResolver = devirt.Resolver
)

// NewDevirtResolver builds a resolver for one snapshot and one
// resolution backend (the snapshot must serve it).
func NewDevirtResolver(snap *Snapshot, id SemanticsID) (*DevirtResolver, error) {
	return devirt.New(snap, id)
}

// Object model (see internal/layout and internal/interp).
type (
	// Layout is a complete-object layout: one offset per subobject.
	Layout = layout.Layout
	// Machine executes analyzed programs over concrete layouts.
	Machine = interp.Machine
)

// LayoutOf computes the complete-object layout of class c (limit 0
// means the default cap).
func LayoutOf(g *Graph, c ClassID, limit int) (*Layout, error) {
	return layout.Of(g, c, limit)
}

// NewMachine builds an interpreter for a clean translation unit.
func NewMachine(src string) (*Machine, error) { return interp.New(src) }
