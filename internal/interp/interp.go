// Package interp executes C++-subset programs over concrete object
// layouts, making the paper's subobject semantics observable at run
// time: writing through a member access stores into the specific
// subobject copy the lookup resolved to, virtual dispatch implements
// the Rossie–Friedman staging equation dyn(m, σ) = lookup(mdc(σ), m)
// (Section 7.1) by running the member lookup against the object's
// dynamic class, and non-virtual access implements
// stat(m, σ) = lookup(ldc(σ), m) ∘ σ by composing the resolved
// definition path onto the receiver subobject's path.
//
// The interpreter exists to close the loop: Figure 9's `e.m = 10`
// doesn't just type-check here — it runs, and the C::m field of the
// E object holds 10 afterwards while the other m copies hold 0.
package interp

import (
	"fmt"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/ast"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/sema"
	"cpplookup/internal/layout"
	"cpplookup/internal/paths"
)

// Object is one complete object: a layout plus its field memory.
type Object struct {
	Class  chg.ClassID // dynamic (most-derived) class
	Layout *layout.Layout
	Mem    []int64
}

// Ref is a reference to a subobject of an object: the runtime value
// of an lvalue of class type. Path is a representative CHG path from
// the subobject's class to the object's dynamic class (any member of
// the ≈-class works; the layout is keyed by the class).
type Ref struct {
	Obj  *Object
	Path paths.Path
}

// Class returns the static class of the referenced subobject.
func (r Ref) Class() chg.ClassID { return r.Path.Ldc() }

// Value is a runtime value (or a variable slot; pointer variables
// carry their declared pointee class in ptr).
type Value struct {
	Kind ValueKind
	Int  int64
	Ref  Ref
	ptr  *Ptr
}

// ValueKind discriminates Value.
type ValueKind uint8

const (
	Nil ValueKind = iota
	Int
	Reference
)

// RuntimeError is an execution failure with a source position when
// one is known.
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return "interp: " + e.Msg }

func errf(format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Machine executes one analyzed translation unit.
type Machine struct {
	unit *sema.Unit
	g    *chg.Graph
	an   *core.Analyzer

	layouts map[chg.ClassID]*layout.Layout
	globals map[string]*Value
	statics map[staticKey]*int64
	methods map[methodKey]*ast.MemberDecl
	funcs   map[string]*ast.FuncDecl

	steps     int
	maxSteps  int
	depth     int
	maxDepth  int
	lastFrame *frame
}

type staticKey struct {
	c chg.ClassID
	m chg.MemberID
}

type methodKey struct {
	c    chg.ClassID
	name string
}

// Option configures a Machine.
type Option func(*Machine)

// WithMaxSteps bounds the number of executed statements (default 1e6).
func WithMaxSteps(n int) Option { return func(m *Machine) { m.maxSteps = n } }

// WithMaxDepth bounds the call depth (default 256).
func WithMaxDepth(n int) Option { return func(m *Machine) { m.maxDepth = n } }

// New builds a Machine for a clean analyzed unit (the AST is re-parsed
// from src so method bodies are available).
func New(src string, opts ...Option) (*Machine, error) {
	file, parseErrs := parser.Parse(src)
	if len(parseErrs) > 0 {
		return nil, fmt.Errorf("interp: parse: %v", parseErrs[0])
	}
	unit, err := sema.Analyze(file)
	if err != nil {
		return nil, err
	}
	if len(unit.Diags) > 0 {
		return nil, fmt.Errorf("interp: program has %d diagnostics; first: %v", len(unit.Diags), unit.Diags[0])
	}
	m := &Machine{
		unit:     unit,
		g:        unit.Graph,
		an:       unit.Analyzer,
		layouts:  make(map[chg.ClassID]*layout.Layout),
		globals:  make(map[string]*Value),
		statics:  make(map[staticKey]*int64),
		methods:  make(map[methodKey]*ast.MemberDecl),
		funcs:    make(map[string]*ast.FuncDecl),
		maxSteps: 1 << 20,
		maxDepth: 256,
	}
	for _, o := range opts {
		o(m)
	}
	// Index function and method bodies (inline first, then
	// out-of-class definitions, which supply the body for methods
	// declared without one).
	for _, d := range file.Decls {
		switch dd := d.(type) {
		case *ast.FuncDecl:
			if dd.Class == "" {
				m.funcs[dd.Name] = dd
				continue
			}
			cid, ok := m.g.ID(dd.Class)
			if !ok {
				continue
			}
			m.methods[methodKey{cid, dd.Name}] = &ast.MemberDecl{
				Pos: dd.Pos, Name: dd.Name, Kind: ast.MethodMember,
				Params: dd.Params, Body: dd.Body, HasBody: true,
			}
		case *ast.ClassDecl:
			cid, ok := m.g.ID(dd.Name)
			if !ok {
				continue
			}
			for i := range dd.Members {
				md := &dd.Members[i]
				if md.Kind != ast.MethodMember {
					continue
				}
				if prev, ok := m.methods[methodKey{cid, md.Name}]; ok && prev.HasBody && !md.HasBody {
					continue // keep an out-of-class body over a bodiless declaration
				}
				m.methods[methodKey{cid, md.Name}] = md
			}
		}
	}
	// Allocate globals.
	for _, d := range file.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			v, err := m.newVar(vd)
			if err != nil {
				return nil, err
			}
			m.globals[vd.Name] = v
		}
	}
	return m, nil
}

// Unit returns the analyzed translation unit.
func (m *Machine) Unit() *sema.Unit { return m.unit }

// Graph returns the hierarchy.
func (m *Machine) Graph() *chg.Graph { return m.g }

func (m *Machine) layoutOf(c chg.ClassID) (*layout.Layout, error) {
	if l, ok := m.layouts[c]; ok {
		return l, nil
	}
	l, err := layout.Of(m.g, c, 0)
	if err != nil {
		return nil, err
	}
	m.layouts[c] = l
	return l, nil
}

// newVar allocates storage for a declaration: class-typed values get
// a fresh object, pointer variables carry their declared pointee
// class (for derived-to-base conversion on assignment), ints start 0.
func (m *Machine) newVar(vd *ast.VarDecl) (*Value, error) {
	cid, isClass := m.g.ID(vd.Type.Name)
	if isClass && vd.Type.Pointer {
		return &Value{Kind: Nil, ptr: &Ptr{Declared: cid}}, nil
	}
	if !isClass {
		return &Value{Kind: Int}, nil
	}
	obj, err := m.NewObject(cid)
	if err != nil {
		return nil, err
	}
	return &Value{Kind: Reference, Ref: Ref{Obj: obj, Path: paths.MustNew(m.g, cid)}}, nil
}

// NewObject allocates a zeroed complete object of class c.
func (m *Machine) NewObject(c chg.ClassID) (*Object, error) {
	l, err := m.layoutOf(c)
	if err != nil {
		return nil, err
	}
	return &Object{Class: c, Layout: l, Mem: make([]int64, l.Size())}, nil
}

// Global returns the value of a global variable.
func (m *Machine) Global(name string) (*Value, bool) {
	v, ok := m.globals[name]
	return v, ok
}

// GlobalNames returns the names of all global variables (unsorted).
func (m *Machine) GlobalNames() []string {
	out := make([]string, 0, len(m.globals))
	for name := range m.globals {
		out = append(out, name)
	}
	return out
}

// ReadRegionField reads the non-static field `mid` of the subobject
// identified by its canonical ≈-key within obj.
func (m *Machine) ReadRegionField(obj *Object, key string, mid chg.MemberID) (int64, error) {
	off, ok := obj.Layout.FieldOffsetByKey(key, mid)
	if !ok {
		return 0, errf("field %s not at region %s", m.g.MemberName(mid), key)
	}
	return obj.Mem[off], nil
}

// Static returns a pointer to the storage of a static data member.
func (m *Machine) Static(class, member string) (*int64, error) {
	cid, ok := m.g.ID(class)
	if !ok {
		return nil, errf("unknown class %s", class)
	}
	mid, ok := m.g.MemberID(member)
	if !ok {
		return nil, errf("unknown member %s", member)
	}
	return m.staticCell(cid, mid), nil
}

func (m *Machine) staticCell(c chg.ClassID, mem chg.MemberID) *int64 {
	k := staticKey{c, mem}
	if p, ok := m.statics[k]; ok {
		return p
	}
	p := new(int64)
	m.statics[k] = p
	return p
}

// ReadField reads the field `member` of the subobject identified by
// the class-name path (ldc first) within obj — the test hook that
// makes "which copy got written?" observable.
func (m *Machine) ReadField(obj *Object, pathNames []string, member string) (int64, error) {
	p, err := paths.ByNames(m.g, pathNames...)
	if err != nil {
		return 0, err
	}
	mid, ok := m.g.MemberID(member)
	if !ok {
		return 0, errf("unknown member %s", member)
	}
	if mem, ok := m.g.DeclaredMember(p.Ldc(), mid); ok && mem.StaticForLookup() {
		return *m.staticCell(p.Ldc(), mid), nil
	}
	off, ok := obj.Layout.FieldOffset(p, mid)
	if !ok {
		return 0, errf("field %s not at subobject %s", member, p)
	}
	return obj.Mem[off], nil
}

// Run executes the named function (use "main" for the paper's
// drivers) and returns its return value (Nil for void returns). The
// entry frame's locals remain inspectable through Local/LocalNames
// afterwards, so drivers that declare their objects locally (as the
// paper's Figure 9 main does) can still be examined.
func (m *Machine) Run(fn string) (Value, error) {
	fd, ok := m.funcs[fn]
	if !ok {
		return Value{}, errf("no function named %s", fn)
	}
	frame := newFrame(nil)
	for _, p := range fd.Params {
		v, err := m.newVar(p)
		if err != nil {
			return Value{}, err
		}
		frame.vars[p.Name] = v
	}
	m.lastFrame = frame
	return m.execBody(fd.Body, frame)
}

// Local returns a local of the most recently Run entry function.
func (m *Machine) Local(name string) (*Value, bool) {
	if m.lastFrame == nil {
		return nil, false
	}
	v, ok := m.lastFrame.vars[name]
	return v, ok
}

// LocalNames returns the names of the last entry frame's locals.
func (m *Machine) LocalNames() []string {
	if m.lastFrame == nil {
		return nil
	}
	out := make([]string, 0, len(m.lastFrame.vars))
	for name := range m.lastFrame.vars {
		out = append(out, name)
	}
	return out
}
