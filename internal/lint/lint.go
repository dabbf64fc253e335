// Package lint is the whole-hierarchy diagnostics engine (chglint): a
// rule-based static analysis over a frozen class hierarchy graph and
// its full lookup table.
//
// Where the frontend (internal/cpp/sema) diagnoses individual member
// accesses, lint diagnoses the *hierarchy*: every finding is decidable
// from the CHG and one Figure-8 lookup pass per member name, with no
// program text required. Each finding carries a machine-checkable
// witness — two conflicting definition paths for an ambiguity, the
// incomparable subobject pair behind a g++ divergence, the classes a
// redundant edge or duplicated base travels through — so a test (or a
// skeptical user) can re-derive it from the paper's definitions.
//
// Rules run in parallel: member-indexed rules per member name (the
// axis along which Figure 8's dataflow decomposes) and class-indexed
// rules per class, all over one engine.Snapshot sharing a single
// eager table build. Results are merged and sorted into the canonical
// diagnostic order, so the output is deterministic however the work
// was scheduled.
package lint

import (
	"fmt"
	"strings"
	"sync/atomic"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/token"
	"cpplookup/internal/diag"
	"cpplookup/internal/engine"
	"cpplookup/internal/mro"
)

// Rule IDs, one per check.
const (
	// AmbiguousMember: lookup[C,m] is Blue — no definition dominates,
	// and any use of C::m is ill-formed (Definition 9).
	AmbiguousMember = "ambiguous-member"
	// C3FailsToLinearize: the class's base precedence lists are
	// contradictory, so no C3 linearization exists — an MRO-based
	// language (Python ≥ 2.3, Dylan, Raku) rejects the class outright.
	C3FailsToLinearize = "c3-fails-to-linearize"
	// DeadMember: a declaration that is never the result of any
	// lookup in any derived class (every derived class shadows it).
	DeadMember = "dead-member"
	// DiamondWithoutVirtual: a base class duplicated into several
	// distinct subobjects because no path to it is virtual.
	DiamondWithoutVirtual = "diamond-without-virtual"
	// DominanceShadowing: a derived declaration hides a base
	// declaration by dominance (Definition 5).
	DominanceShadowing = "dominance-shadowing"
	// DominanceVsMroDivergence: the paper's dominance lookup and the
	// C3 linearization backend (internal/mro) disagree on a table cell
	// — the hierarchy means different things in C++ and in an
	// MRO-based language.
	DominanceVsMroDivergence = "dominance-vs-mro-divergence"
	// GxxDivergence: the g++ 2.7.2.1 baseline (internal/gxx) and the
	// paper's algorithm disagree on a table cell — Figure 9 as a
	// diagnostic.
	GxxDivergence = "gxx-divergence"
	// RedundantInheritanceEdge: a direct base that is already
	// inherited through another direct base.
	RedundantInheritanceEdge = "redundant-inheritance-edge"
)

// Footprint classifies what a rule's findings depend on — the axis an
// incremental Session re-runs it along when the hierarchy is edited.
type Footprint uint8

const (
	// FootprintMember marks member-indexed rules: the findings for
	// member name m depend only on the lookup column of m (plus
	// same-name declarations). An edit's invalidation cone names
	// exactly the columns to re-run.
	FootprintMember Footprint = iota
	// FootprintClass marks class-indexed rules that read lookup cells
	// of one class row: re-run for classes whose row intersects the
	// cone, and for added classes.
	FootprintClass
	// FootprintHierarchy marks structural rules: findings depend only
	// on the hierarchy's shape (edges, virtual flags), never on member
	// lookup cells. Classes are closed at definition, so these re-run
	// only when classes are added.
	FootprintHierarchy
)

func (f Footprint) String() string {
	switch f {
	case FootprintMember:
		return "member"
	case FootprintClass:
		return "class"
	case FootprintHierarchy:
		return "hierarchy"
	}
	return fmt.Sprintf("Footprint(%d)", uint8(f))
}

// Rule describes one lint check.
type Rule struct {
	ID        string
	Severity  diag.Severity
	Footprint Footprint
	Doc       string
}

// Rules lists every rule in ID order. Hierarchy-level ambiguity is a
// warning, not an error: C++ diagnoses ambiguity at the point of use,
// so a Blue table cell makes uses ill-formed without making the
// hierarchy itself ill-formed (the frontend reports the error at the
// access).
var Rules = []Rule{
	{AmbiguousMember, diag.Warning, FootprintMember,
		"member lookup has no dominant definition; any use of the member is ill-formed"},
	{C3FailsToLinearize, diag.Warning, FootprintHierarchy,
		"the class has no C3 linearization: its base precedence lists are contradictory"},
	{DeadMember, diag.Info, FootprintMember,
		"declaration is shadowed in every derived class and is never the result of a lookup below it"},
	{DiamondWithoutVirtual, diag.Warning, FootprintHierarchy,
		"a repeated base class is duplicated into distinct subobjects because no inheritance path to it is virtual"},
	{DominanceShadowing, diag.Warning, FootprintMember,
		"a derived declaration hides a base declaration of the same name by dominance"},
	{DominanceVsMroDivergence, diag.Info, FootprintMember,
		"the C3 linearization backend resolves this member differently from the paper's dominance lookup"},
	{GxxDivergence, diag.Warning, FootprintClass,
		"the g++ 2.7.2.1 baseline lookup disagrees with the paper's algorithm on this member"},
	{RedundantInheritanceEdge, diag.Warning, FootprintHierarchy,
		"a direct base is already inherited through another direct base"},
}

// RuleIDs returns every rule ID in order.
func RuleIDs() []string {
	ids := make([]string, len(Rules))
	for i, r := range Rules {
		ids[i] = r.ID
	}
	return ids
}

// Descriptions maps rule IDs to their one-line docs (the SARIF rule
// descriptors).
func Descriptions() map[string]string {
	m := make(map[string]string, len(Rules))
	for _, r := range Rules {
		m[r.ID] = r.Doc
	}
	return m
}

func severityOf(id string) diag.Severity {
	for _, r := range Rules {
		if r.ID == id {
			return r.Severity
		}
	}
	return diag.Warning
}

// Source supplies source positions for classes and members when the
// hierarchy came from the C++ frontend. *sema.Unit implements it.
type Source interface {
	ClassPos(chg.ClassID) (token.Pos, bool)
	MemberPos(chg.ClassID, chg.MemberID) (token.Pos, bool)
}

// Options configures a lint run.
type Options struct {
	// Rules enables only the listed rule IDs; nil enables all.
	Rules []string
	// File is recorded on every diagnostic (the input path).
	File string
	// Source provides positions; nil leaves diagnostics positionless.
	Source Source
	// Workers bounds the parallelism; 0 means GOMAXPROCS.
	Workers int
	// SubobjectLimit gates the gxx-divergence rule: context classes
	// whose subobject graph is larger are skipped (the baseline is
	// exponential; the table is not). 0 means DefaultSubobjectLimit.
	SubobjectLimit int
	// PathLimit gates witness enumeration for ambiguous-member:
	// beyond this many CHG paths the witness falls back to the Blue
	// set's abstractions. 0 means DefaultPathLimit.
	PathLimit int
	// Semantics restricts the resolution backends the cross-semantics
	// rules may consult: rules needing the C3 backend run only when
	// core.SemC3 is listed, gxx-divergence only with core.SemGxx. nil
	// means all backends (every enabled rule runs).
	Semantics []core.SemanticsID
}

// DefaultSubobjectLimit bounds the subobject graphs the gxx rule will
// build, and DefaultPathLimit the paths the ambiguity witness will
// enumerate. Both guard the exponential baselines, not the paper's
// algorithm.
const (
	DefaultSubobjectLimit = 1 << 12
	DefaultPathLimit      = 1 << 12
)

// Run lints the snapshot's hierarchy and returns the findings in
// canonical order. The snapshot should be built with
// core.WithStaticRule() so the table (and therefore every rule) sees
// the paper's Definition 16–17 treatment of static members; the cli
// and facade constructors do this.
func Run(snap *engine.Snapshot, opts Options) ([]diag.Diagnostic, error) {
	r, err := tableRunner(snap, opts)
	if err != nil {
		return nil, err
	}
	return r.run(), nil
}

// tableRunner binds the rule implementations to the snapshot's eagerly
// built table.
func tableRunner(snap *engine.Snapshot, opts Options) (*runner, error) {
	enabled, err := ruleSet(opts.Rules)
	if err != nil {
		return nil, err
	}
	gateSemantics(enabled, opts.Semantics)
	t := snap.Table()
	return newRunner(snap.Graph(), t.Lookup, t.Members, opts, enabled, func(b *mro.Backend) lookupFunc {
		// Snapshots built to serve the C3 backend share their table
		// (and its payload pool); otherwise tabulate the local backend
		// once for this run.
		c3, ok := snap.TableSem(core.SemC3)
		if !ok {
			c3 = core.BuildSemTable(b, opts.Workers)
		}
		return c3.Lookup
	}), nil
}

// lookupFunc is lookup[c,m] under one semantics.
type lookupFunc = func(chg.ClassID, chg.MemberID) core.Result

// newRunner binds the rule implementations to one view of the
// hierarchy: look is lookup[c,m] and members lists Members[c] sorted
// by id. Unset witness limits take their defaults. When a
// cross-semantics rule is enabled it builds the C3 linearization, and
// for dominance-vs-mro-divergence c3 picks the C3 lookup, given the
// local backend as the fallback.
func newRunner(g *chg.Graph, look lookupFunc, members func(chg.ClassID) []chg.MemberID, opts Options, enabled map[string]bool, c3 func(*mro.Backend) lookupFunc) *runner {
	r := &runner{
		g:         g,
		look:      look,
		members:   members,
		opts:      opts,
		enabled:   enabled,
		subLimit:  opts.SubobjectLimit,
		pathLimit: opts.PathLimit,
	}
	if r.subLimit <= 0 {
		r.subLimit = DefaultSubobjectLimit
	}
	if r.pathLimit <= 0 {
		r.pathLimit = DefaultPathLimit
	}
	if enabled[C3FailsToLinearize] || enabled[DominanceVsMroDivergence] {
		b := mro.New(g, nil)
		r.lin = b.Linearization()
		if enabled[DominanceVsMroDivergence] {
			r.c3look = c3(b)
		}
	}
	return r
}

// run lints the whole hierarchy: member-indexed rules fan out per
// member name, class-indexed rules per class, and the final sort
// erases scheduling order.
func (r *runner) run() []diag.Diagnostic {
	classes := upTo[chg.ClassID](r.g.NumClasses())
	var out []diag.Diagnostic
	for _, pass := range [][][]diag.Diagnostic{
		r.checkMembers(upTo[chg.MemberID](r.g.NumMemberNames())),
		r.checkRows(classes),
		r.checkStructure(classes),
	} {
		for _, ds := range pass {
			out = append(out, ds...)
		}
	}
	diag.Sort(out)
	return out
}

// upTo returns the ids 0, 1, …, n-1.
func upTo[ID ~int32](n int) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// gateSemantics drops the cross-semantics rules whose backend is not
// being served. nil means all backends (every enabled rule runs).
func gateSemantics(enabled map[string]bool, sems []core.SemanticsID) {
	if sems == nil {
		return
	}
	serve := make(map[core.SemanticsID]bool, len(sems))
	for _, id := range sems {
		serve[id] = true
	}
	if !serve[core.SemC3] {
		delete(enabled, C3FailsToLinearize)
		delete(enabled, DominanceVsMroDivergence)
	}
	if !serve[core.SemGxx] {
		delete(enabled, GxxDivergence)
	}
}

func ruleSet(ids []string) (map[string]bool, error) {
	enabled := make(map[string]bool, len(Rules))
	if ids == nil {
		for _, r := range Rules {
			enabled[r.ID] = true
		}
		return enabled, nil
	}
	known := Descriptions()
	for _, id := range ids {
		if _, ok := known[id]; !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (valid rules: %s)",
				id, strings.Join(RuleIDs(), ", "))
		}
		enabled[id] = true
	}
	return enabled, nil
}

// runner holds the shared read-only state of one lint run. The lookup
// surface is a pair of function views rather than a concrete table:
// Run binds them to an eagerly built core.Table, while an incremental
// Session binds them to the snapshot's lazy warm-carried cache —
// identical cells either way (pinned by the engine's differential
// tests), so the two paths produce identical diagnostics.
type runner struct {
	g *chg.Graph
	// look is lookup[c,m]; members lists Members[c] sorted by id.
	look    lookupFunc
	members func(chg.ClassID) []chg.MemberID
	opts    Options
	enabled map[string]bool

	subLimit  int
	pathLimit int

	// enumerations and scanOrders count the run's member-independent
	// witness work: classes whose CHG paths were enumerated for
	// ambiguity witnesses, and g++ scan orders built. Each is at most
	// one per class.
	enumerations atomic.Int64
	scanOrders   atomic.Int64

	// lin and c3look are the C3 backend's view of the hierarchy,
	// populated only when a cross-semantics rule is enabled.
	lin    *mro.Linearization
	c3look lookupFunc
}

func (r *runner) classPos(c chg.ClassID) token.Pos {
	if r.opts.Source != nil {
		if p, ok := r.opts.Source.ClassPos(c); ok {
			return p
		}
	}
	return token.Pos{}
}

func (r *runner) memberPos(c chg.ClassID, m chg.MemberID) token.Pos {
	if r.opts.Source != nil {
		if p, ok := r.opts.Source.MemberPos(c, m); ok {
			return p
		}
	}
	return r.classPos(c)
}

func (r *runner) diag(rule string, pos token.Pos, c chg.ClassID, member, msg string, w *diag.Witness) diag.Diagnostic {
	return diag.Diagnostic{
		File:     r.opts.File,
		Pos:      pos,
		Severity: severityOf(rule),
		Rule:     rule,
		Class:    r.g.Name(c),
		Member:   member,
		Message:  msg,
		Witness:  w,
	}
}
