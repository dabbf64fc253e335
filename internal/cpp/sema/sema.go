// Package sema is the semantic analyzer of the C++ subset frontend:
// it builds the class hierarchy graph from a parsed translation unit,
// resolves every member-access expression with the paper's lookup
// algorithm (internal/core, with the static-member rule and full path
// tracking), applies access control after each successful lookup
// (Section 6), and reports source-located diagnostics for unknown,
// ambiguous, and inaccessible members.
package sema

import (
	"errors"
	"fmt"

	"cpplookup/internal/access"
	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/cpp/ast"
	"cpplookup/internal/cpp/parser"
	"cpplookup/internal/cpp/token"
	"cpplookup/internal/diag"
	"cpplookup/internal/scopes"
	"cpplookup/internal/suggest"
)

// DiagKind classifies diagnostics.
type DiagKind uint8

const (
	ErrUnknownClass DiagKind = iota
	ErrUnknownMember
	ErrAmbiguousMember
	ErrInaccessibleMember
	ErrNotAClass
	ErrPointerMismatch
	ErrUnknownName
	ErrDuplicateMember
	ErrRedefinedClass
	ErrParse
)

func (k DiagKind) String() string {
	switch k {
	case ErrUnknownClass:
		return "unknown-class"
	case ErrUnknownMember:
		return "unknown-member"
	case ErrAmbiguousMember:
		return "ambiguous-member"
	case ErrInaccessibleMember:
		return "inaccessible-member"
	case ErrNotAClass:
		return "not-a-class"
	case ErrPointerMismatch:
		return "pointer-mismatch"
	case ErrUnknownName:
		return "unknown-name"
	case ErrDuplicateMember:
		return "duplicate-member"
	case ErrRedefinedClass:
		return "redefined-class"
	case ErrParse:
		return "parse-error"
	}
	return "diag(?)"
}

// Diagnostic is one analysis finding.
type Diagnostic struct {
	Pos  token.Pos
	Kind DiagKind
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Kind, d.Msg)
}

// Resolution records the outcome of one member-access expression.
type Resolution struct {
	Pos        token.Pos
	Context    chg.ClassID // class the lookup ran against
	MemberName string
	Result     core.Result
	Accessible bool // meaningful only when Result.Found()
}

// Unit is an analyzed translation unit.
type Unit struct {
	Graph       *chg.Graph
	Analyzer    *core.Analyzer
	Access      *access.Table
	Resolutions []Resolution
	Diags       []Diagnostic

	memberType map[typeKey]typeInfo // declared member types, for chained accesses
	globals    map[string]typeInfo
	classPos   map[chg.ClassID]token.Pos // class-head positions
	memberPos  map[typeKey]token.Pos     // member-declaration positions
}

// ClassPos returns the source position of the class's definition. It
// (with MemberPos) implements lint's Source interface, so hierarchy
// diagnostics from a C++ translation unit point into the source.
func (u *Unit) ClassPos(c chg.ClassID) (token.Pos, bool) {
	p, ok := u.classPos[c]
	return p, ok
}

// MemberPos returns the source position of the member's declaration in
// class c (for a using-declaration, the position of the using itself).
func (u *Unit) MemberPos(c chg.ClassID, m chg.MemberID) (token.Pos, bool) {
	p, ok := u.memberPos[typeKey{c, m}]
	return p, ok
}

// Diagnostics converts the unit's findings to the unified diagnostic
// model shared with the hierarchy linter. Frontend findings are all
// errors: each one makes the translation unit ill-formed. file is
// recorded on every diagnostic; the result is in canonical order.
func (u *Unit) Diagnostics(file string) []diag.Diagnostic {
	out := make([]diag.Diagnostic, len(u.Diags))
	for i, d := range u.Diags {
		out[i] = diag.Diagnostic{
			File:     file,
			Pos:      d.Pos,
			Severity: diag.Error,
			Rule:     d.Kind.String(),
			Message:  d.Msg,
		}
	}
	diag.Sort(out)
	return out
}

// DiagDescriptions maps every frontend rule ID to a one-line
// description (the SARIF rule descriptors for frontend findings).
func DiagDescriptions() map[string]string {
	return map[string]string{
		ErrUnknownClass.String():       "reference to a class that is not defined",
		ErrUnknownMember.String():      "member lookup found no declaration (Figure 8: undefined)",
		ErrAmbiguousMember.String():    "member lookup has no dominant definition at this use (Definition 9)",
		ErrInaccessibleMember.String(): "the dominant definition is not accessible along the resolved path (Section 6)",
		ErrNotAClass.String():          "member access on a value of non-class type",
		ErrPointerMismatch.String():    "'.' used on a pointer or '->' on a non-pointer",
		ErrUnknownName.String():        "use of an undeclared identifier",
		ErrDuplicateMember.String():    "a member is redeclared as a different kind of member",
		ErrRedefinedClass.String():     "a class is defined twice",
		ErrParse.String():              "the source does not parse",
	}
}

type typeKey struct {
	c chg.ClassID
	m chg.MemberID
}

type typeInfo struct {
	class   chg.ClassID // valid when isClass
	isClass bool
	pointer bool
}

// AnalyzeSource parses and analyzes src. The returned Unit is always
// non-nil when the class declarations could be built into a DAG; hard
// structural errors (inheritance cycles, unknown bases making the
// graph unbuildable) are returned as the error.
func AnalyzeSource(src string) (*Unit, error) {
	file, parseErrs := parser.Parse(src)
	u, err := Analyze(file)
	if u != nil {
		for _, e := range parseErrs {
			u.Diags = append(u.Diags, Diagnostic{Kind: ErrParse, Msg: e.Error()})
		}
	}
	return u, err
}

// AnalyzeSources analyzes several sources as one translation unit, in
// order — the moral equivalent of textual #include: headers first,
// then the implementation files that use them.
func AnalyzeSources(srcs ...string) (*Unit, error) {
	var all ast.File
	var parseErrs []error
	for _, src := range srcs {
		file, errs := parser.Parse(src)
		parseErrs = append(parseErrs, errs...)
		all.Decls = append(all.Decls, file.Decls...)
	}
	u, err := Analyze(&all)
	if u != nil {
		for _, e := range parseErrs {
			u.Diags = append(u.Diags, Diagnostic{Kind: ErrParse, Msg: e.Error()})
		}
	}
	return u, err
}

// classInfo is the validated declaration data collected from the AST
// before graph construction. Graphs are built from it twice when
// using-declarations are present: once without them to resolve the
// using targets (a using-declaration's meaning depends on lookup in
// the *base*, which must not see the using itself), then finally with
// the resolved re-declarations added.
type classInfo struct {
	name    string
	pos     token.Pos
	bases   []baseInfo
	members []memberInfo
	usings  []usingInfo
}

type baseInfo struct {
	name   string
	kind   chg.Kind
	access access.Level
}

type memberInfo struct {
	decl   chg.Member
	pos    token.Pos
	access access.Level
	typ    ast.TypeRef
	hasTyp bool
}

type usingInfo struct {
	pos    token.Pos
	base   string
	name   string
	access access.Level
}

// Analyze builds the CHG from file's class declarations and resolves
// every member access in it.
func Analyze(file *ast.File) (*Unit, error) {
	u := &Unit{
		memberType: make(map[typeKey]typeInfo),
		globals:    make(map[string]typeInfo),
		classPos:   make(map[chg.ClassID]token.Pos),
		memberPos:  make(map[typeKey]token.Pos),
	}

	infos := u.collectClasses(file)

	hasUsings := false
	for i := range infos {
		if len(infos[i].usings) > 0 {
			hasUsings = true
			break
		}
	}
	if hasUsings {
		prelim, err := buildGraph(infos)
		if err != nil {
			return nil, err
		}
		u.resolveUsings(infos, prelim)
	}

	g, err := buildGraph(infos)
	if err != nil {
		return nil, err
	}
	u.Graph = g
	u.Analyzer = core.New(g, core.WithStaticRule(), core.WithTrackPaths())
	u.Access = access.NewTable(g)
	for i := range infos {
		ci := &infos[i]
		cid := g.MustID(ci.name)
		u.classPos[cid] = ci.pos
		for _, bi := range ci.bases {
			u.Access.SetEdge(cid, g.MustID(bi.name), bi.access)
		}
		// buildGraph declared ci.members in order, and their names are
		// unique (collectClasses collapses overloads, resolveUsings
		// rejects a using that repeats a name), so declaration j is
		// member j.
		decls := g.DeclaredMembers(cid)
		for j, mi := range ci.members {
			mid := decls[j].ID
			u.Access.SetMember(cid, mid, mi.access)
			u.memberPos[typeKey{cid, mid}] = mi.pos
			if mi.hasTyp {
				if ti, ok := u.typeInfoOf(mi.typ); ok {
					u.memberType[typeKey{cid, mid}] = ti
				}
			}
		}
	}

	// Pass 2: globals, then free-function bodies, then inline method
	// bodies (which, as in C++, are analyzed in the complete
	// translation-unit context).
	for _, d := range file.Decls {
		switch dd := d.(type) {
		case *ast.VarDecl:
			u.declareVar(u.globals, dd)
		case *ast.FuncDecl:
			if dd.Class != "" {
				continue // out-of-class method: not a global name
			}
			// Function names resolve like globals; a call's type is
			// the return type (class-typed returns chain).
			ti, _ := u.typeInfoOf(dd.Result)
			u.globals[dd.Name] = ti
		}
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			if fd.Class != "" {
				u.checkOutOfClassMethod(fd)
				continue
			}
			fs := &funcScope{u: u, locals: map[string]typeInfo{}}
			for _, p := range fd.Params {
				fs.declare(p)
			}
			for _, s := range fd.Body {
				u.checkStmt(fs, s)
			}
		}
	}
	for _, d := range file.Decls {
		cd, ok := d.(*ast.ClassDecl)
		if !ok {
			continue
		}
		cid, ok := u.Graph.ID(cd.Name)
		if !ok {
			continue // redefinition, already diagnosed
		}
		for _, md := range cd.Members {
			if md.Kind != ast.MethodMember || !md.HasBody {
				continue
			}
			ms := u.newMethodScope(cid)
			for _, p := range md.Params {
				ms.declare(p)
			}
			for _, s := range md.Body {
				u.checkStmt(ms, s)
			}
		}
	}
	return u, nil
}

// checkOutOfClassMethod analyzes `type C::m(...) { … }`: the class
// must exist and declare m as a method; the body is analyzed in C's
// method scope exactly like an inline definition.
func (u *Unit) checkOutOfClassMethod(fd *ast.FuncDecl) {
	cid, ok := u.Graph.ID(fd.Class)
	if !ok {
		u.Diags = append(u.Diags, Diagnostic{
			Pos: fd.Pos, Kind: ErrUnknownClass,
			Msg: fmt.Sprintf("out-of-class definition for unknown class %s", fd.Class),
		})
		return
	}
	declared := false
	if mid, ok := u.Graph.MemberID(fd.Name); ok {
		if mem, ok := u.Graph.DeclaredMember(cid, mid); ok && mem.Kind == chg.Method {
			declared = true
		}
	}
	if !declared {
		u.Diags = append(u.Diags, Diagnostic{
			Pos: fd.Pos, Kind: ErrUnknownMember,
			Msg: fmt.Sprintf("%s does not declare a method named %s", fd.Class, fd.Name),
		})
		return
	}
	ms := u.newMethodScope(cid)
	for _, p := range fd.Params {
		ms.declare(p)
	}
	for _, s := range fd.Body {
		u.checkStmt(ms, s)
	}
}

// collectClasses walks the class declarations into classInfo records,
// emitting the structural diagnostics (redefinition, unknown base,
// duplicate member) exactly once.
func (u *Unit) collectClasses(file *ast.File) []classInfo {
	var infos []classInfo
	defined := map[string]bool{}
	for _, d := range file.Decls {
		cd, ok := d.(*ast.ClassDecl)
		if !ok {
			continue
		}
		if defined[cd.Name] {
			u.Diags = append(u.Diags, Diagnostic{
				Pos: cd.Pos, Kind: ErrRedefinedClass,
				Msg: fmt.Sprintf("redefinition of class %s", cd.Name),
			})
			continue
		}
		defined[cd.Name] = true
		ci := classInfo{name: cd.Name, pos: cd.Pos}
		for _, bs := range cd.Bases {
			if !defined[bs.Name] {
				u.Diags = append(u.Diags, Diagnostic{
					Pos: bs.Pos, Kind: ErrUnknownClass,
					Msg: fmt.Sprintf("base class %s of %s is not defined", bs.Name, cd.Name),
				})
				continue
			}
			kind := chg.NonVirtual
			if bs.Virtual {
				kind = chg.Virtual
			}
			ci.bases = append(ci.bases, baseInfo{name: bs.Name, kind: kind, access: level(bs.Access)})
		}
		seen := map[string]ast.MemberKind{}
		for _, md := range cd.Members {
			if md.Kind == ast.UsingMember {
				ci.usings = append(ci.usings, usingInfo{
					pos: md.Pos, base: md.UsingOf, name: md.Name, access: level(md.Access),
				})
				continue
			}
			if prev, dup := seen[md.Name]; dup {
				// Overload sets collapse to one name; mixing kinds is
				// a genuine redeclaration error.
				if prev != md.Kind {
					u.Diags = append(u.Diags, Diagnostic{
						Pos: md.Pos, Kind: ErrDuplicateMember,
						Msg: fmt.Sprintf("%s::%s redeclared as a different kind of member", cd.Name, md.Name),
					})
				}
				continue
			}
			seen[md.Name] = md.Kind
			ci.members = append(ci.members, memberInfo{
				decl: chg.Member{
					Name:    md.Name,
					Kind:    memberKind(md.Kind),
					Static:  md.Static,
					Virtual: md.Virtual,
				},
				pos:    md.Pos,
				access: level(md.Access),
				typ:    md.Type,
				hasTyp: true,
			})
		}
		infos = append(infos, ci)
	}
	return infos
}

// buildGraph constructs a chg.Graph from collected class infos.
func buildGraph(infos []classInfo) (*chg.Graph, error) {
	b := chg.NewBuilder()
	for i := range infos {
		b.Class(infos[i].name)
	}
	for i := range infos {
		ci := &infos[i]
		id := b.Class(ci.name)
		for _, bi := range ci.bases {
			b.Base(id, b.Class(bi.name), bi.kind)
		}
		for _, mi := range ci.members {
			b.Member(id, mi.decl)
		}
	}
	return b.Build()
}

// resolveUsings turns each `using Base::name;` into a re-declaration
// of the member in the using class ([namespace.udecl]: the member is
// declared in the deriving class's scope — which is exactly what
// gives it dominance over the other inherited copies). Resolution
// runs against the prelim graph, which excludes the usings
// themselves. Successfully resolved usings are appended to the
// class's members; failures are diagnosed.
func (u *Unit) resolveUsings(infos []classInfo, prelim *chg.Graph) {
	a := core.New(prelim, core.WithStaticRule())
	// Index member types by (class name, member name) so the alias
	// can inherit the target's declared type for chained accesses.
	typeOf := map[[2]string]ast.TypeRef{}
	declKind := map[[2]string]chg.Member{}
	for i := range infos {
		for _, mi := range infos[i].members {
			typeOf[[2]string{infos[i].name, mi.decl.Name}] = mi.typ
			declKind[[2]string{infos[i].name, mi.decl.Name}] = mi.decl
		}
	}
	for i := range infos {
		ci := &infos[i]
		cid := prelim.MustID(ci.name)
		for _, us := range ci.usings {
			bid, ok := prelim.ID(us.base)
			if !ok {
				u.Diags = append(u.Diags, Diagnostic{
					Pos: us.pos, Kind: ErrUnknownClass,
					Msg: fmt.Sprintf("unknown class %s in using-declaration", us.base),
				})
				continue
			}
			if bid != cid && !prelim.IsBase(bid, cid) {
				u.Diags = append(u.Diags, Diagnostic{
					Pos: us.pos, Kind: ErrUnknownClass,
					Msg: fmt.Sprintf("%s is not a base of %s in using-declaration", us.base, ci.name),
				})
				continue
			}
			mid, ok := prelim.MemberID(us.name)
			var r core.Result
			if ok {
				r = a.Lookup(bid, mid)
			}
			switch r.Kind() {
			case core.Undefined:
				u.Diags = append(u.Diags, Diagnostic{
					Pos: us.pos, Kind: ErrUnknownMember,
					Msg: fmt.Sprintf("no member named %s in %s for using-declaration", us.name, us.base),
				})
				continue
			case core.BlueKind:
				u.Diags = append(u.Diags, Diagnostic{
					Pos: us.pos, Kind: ErrAmbiguousMember,
					Msg: fmt.Sprintf("member %s is ambiguous in %s; using-declaration cannot resolve it", us.name, us.base),
				})
				continue
			}
			dup := false
			for _, mi := range ci.members {
				if mi.decl.Name == us.name {
					dup = true
					break
				}
			}
			if dup {
				u.Diags = append(u.Diags, Diagnostic{
					Pos: us.pos, Kind: ErrDuplicateMember,
					Msg: fmt.Sprintf("%s::%s conflicts with a using-declaration", ci.name, us.name),
				})
				continue
			}
			target := [2]string{prelim.Name(r.Class()), us.name}
			decl, ok := declKind[target]
			if !ok {
				decl = chg.Member{Name: us.name, Kind: chg.Method}
			}
			mi := memberInfo{decl: decl, pos: us.pos, access: us.access}
			if t, ok := typeOf[target]; ok {
				mi.typ = t
				mi.hasTyp = true
			}
			ci.members = append(ci.members, mi)
		}
	}
}

func level(a ast.Access) access.Level {
	switch a {
	case ast.Protected:
		return access.Protected
	case ast.Private:
		return access.Private
	}
	return access.Public
}

func memberKind(k ast.MemberKind) chg.MemberKind {
	switch k {
	case ast.FieldMember:
		return chg.Field
	case ast.TypedefMember:
		return chg.TypeName
	case ast.EnumeratorMember:
		return chg.Enumerator
	}
	return chg.Method
}

func (u *Unit) typeInfoOf(t ast.TypeRef) (typeInfo, bool) {
	if t.Builtin || t.Name == "" {
		return typeInfo{pointer: t.Pointer}, !t.Builtin && t.Name != ""
	}
	if id, ok := u.Graph.ID(t.Name); ok {
		return typeInfo{class: id, isClass: true, pointer: t.Pointer}, true
	}
	return typeInfo{}, false
}

func (u *Unit) declareVar(scope map[string]typeInfo, vd *ast.VarDecl) {
	ti, ok := u.typeInfoOf(vd.Type)
	if !ok && !vd.Type.Builtin {
		u.Diags = append(u.Diags, Diagnostic{
			Pos: vd.Pos, Kind: ErrUnknownClass,
			Msg: fmt.Sprintf("unknown type %s for variable %s", vd.Type.Name, vd.Name),
		})
	}
	scope[vd.Name] = ti
}

// scopeCtx abstracts how names and `this` resolve in the body being
// checked: free functions see locals + globals; method bodies see
// locals, then the enclosing class scope (member lookup, per §6),
// then globals.
type scopeCtx interface {
	declare(vd *ast.VarDecl)
	resolveName(pos token.Pos, name string) (typeInfo, bool)
	thisType(pos token.Pos) (typeInfo, bool)
}

// funcScope: a free function body.
type funcScope struct {
	u      *Unit
	locals map[string]typeInfo
}

func (f *funcScope) declare(vd *ast.VarDecl) { f.u.declareVar(f.locals, vd) }

func (f *funcScope) resolveName(pos token.Pos, name string) (typeInfo, bool) {
	if ti, ok := f.locals[name]; ok {
		return ti, true
	}
	if ti, ok := f.u.globals[name]; ok {
		return ti, true
	}
	f.u.Diags = append(f.u.Diags, Diagnostic{
		Pos: pos, Kind: ErrUnknownName,
		Msg: fmt.Sprintf("use of undeclared identifier %s", name),
	})
	return typeInfo{}, false
}

func (f *funcScope) thisType(pos token.Pos) (typeInfo, bool) {
	f.u.Diags = append(f.u.Diags, Diagnostic{
		Pos: pos, Kind: ErrUnknownName,
		Msg: "'this' used outside of a member function",
	})
	return typeInfo{}, false
}

// methodScope: an inline member-function body. Unqualified names walk
// the scope stack of Section 6: block scope, then the class scope
// (whose local lookup *is* the member lookup problem), then globals.
type methodScope struct {
	u     *Unit
	class chg.ClassID
	stack *scopes.Stack
}

func (u *Unit) newMethodScope(c chg.ClassID) *methodScope {
	st := scopes.New(u.Analyzer)
	st.PushBlock()
	for name, ti := range u.globals {
		st.Bind(name, ti)
	}
	st.PushClass(c)
	st.PushBlock() // function-local scope
	return &methodScope{u: u, class: c, stack: st}
}

func (m *methodScope) declare(vd *ast.VarDecl) {
	ti, ok := m.u.typeInfoOf(vd.Type)
	if !ok && !vd.Type.Builtin {
		m.u.Diags = append(m.u.Diags, Diagnostic{
			Pos: vd.Pos, Kind: ErrUnknownClass,
			Msg: fmt.Sprintf("unknown type %s for variable %s", vd.Type.Name, vd.Name),
		})
	}
	if err := m.stack.Bind(vd.Name, ti); err != nil {
		m.u.Diags = append(m.u.Diags, Diagnostic{Pos: vd.Pos, Kind: ErrParse, Msg: err.Error()})
	}
}

func (m *methodScope) resolveName(pos token.Pos, name string) (typeInfo, bool) {
	sym, ok, err := m.stack.Resolve(name)
	var amb *scopes.ErrAmbiguous
	if errors.As(err, &amb) {
		// The class scope found the name but ambiguously; record the
		// failed resolution like a member access would.
		mid, _ := m.u.Graph.MemberID(name)
		r := m.u.Analyzer.Lookup(amb.Class, mid)
		m.u.Resolutions = append(m.u.Resolutions, Resolution{
			Pos: pos, Context: amb.Class, MemberName: name, Result: r,
		})
		m.u.Diags = append(m.u.Diags, Diagnostic{
			Pos: pos, Kind: ErrAmbiguousMember,
			Msg: fmt.Sprintf("unqualified name %s is ambiguous in %s (%s)",
				name, m.u.Graph.Name(amb.Class), r.Format(m.u.Graph)),
		})
		return typeInfo{}, false
	}
	if !ok {
		m.u.Diags = append(m.u.Diags, Diagnostic{
			Pos: pos, Kind: ErrUnknownName,
			Msg: fmt.Sprintf("use of undeclared identifier %s", name),
		})
		return typeInfo{}, false
	}
	switch sym.Kind {
	case scopes.Binding:
		ti, _ := sym.Value.(typeInfo)
		return ti, true
	case scopes.MemberSymbol:
		// Implicit this->name: record the resolution; a member is
		// always accessible from the class's own scope.
		m.u.Resolutions = append(m.u.Resolutions, Resolution{
			Pos: pos, Context: sym.Class, MemberName: name,
			Result: sym.Member, Accessible: true,
		})
		if mid, ok := m.u.Graph.MemberID(name); ok {
			if ti, ok := m.u.memberType[typeKey{sym.Member.Class(), mid}]; ok {
				return ti, true
			}
		}
		return typeInfo{}, true
	}
	return typeInfo{}, false
}

func (m *methodScope) thisType(token.Pos) (typeInfo, bool) {
	return typeInfo{class: m.class, isClass: true, pointer: true}, true
}

func (u *Unit) checkStmt(sc scopeCtx, s ast.Stmt) {
	switch ss := s.(type) {
	case *ast.DeclStmt:
		sc.declare(ss.Var)
	case *ast.ExprStmt:
		u.checkExpr(sc, ss.X)
	case *ast.ReturnStmt:
		if ss.X != nil {
			u.checkExpr(sc, ss.X)
		}
	case *ast.IfStmt:
		u.checkExpr(sc, ss.Cond)
		for _, t := range ss.Then {
			u.checkStmt(sc, t)
		}
		for _, e := range ss.Else {
			u.checkStmt(sc, e)
		}
	case *ast.WhileStmt:
		u.checkExpr(sc, ss.Cond)
		for _, b := range ss.Body {
			u.checkStmt(sc, b)
		}
	}
}

// checkExpr resolves the member accesses in an expression and returns
// the expression's type when it is a class (for chained accesses).
func (u *Unit) checkExpr(sc scopeCtx, e ast.Expr) (typeInfo, bool) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return typeInfo{}, false
	case *ast.Ident:
		return sc.resolveName(ex.Pos, ex.Name)
	case *ast.This:
		return sc.thisType(ex.Pos)
	case *ast.Assign:
		u.checkExpr(sc, ex.R)
		return u.checkExpr(sc, ex.L)
	case *ast.Binary:
		u.checkExpr(sc, ex.L)
		u.checkExpr(sc, ex.R)
		return typeInfo{}, false
	case *ast.Call:
		for _, arg := range ex.Args {
			u.checkExpr(sc, arg)
		}
		return u.checkExpr(sc, ex.Fun)
	case *ast.Qualified:
		cid, ok := u.Graph.ID(ex.Class)
		if !ok {
			msg := fmt.Sprintf("unknown class %s in qualified name", ex.Class)
			if s := suggest.Classes(u.Graph, ex.Class, 1); len(s) > 0 {
				msg += fmt.Sprintf("; did you mean %s?", s[0])
			}
			u.Diags = append(u.Diags, Diagnostic{
				Pos: ex.Pos, Kind: ErrUnknownClass,
				Msg: msg,
			})
			return typeInfo{}, false
		}
		return u.resolveMember(ex.Pos, cid, ex.Member)
	case *ast.Member:
		base, ok := u.checkExpr(sc, ex.X)
		if !ok {
			return typeInfo{}, false
		}
		if !base.isClass {
			u.Diags = append(u.Diags, Diagnostic{
				Pos: ex.Pos, Kind: ErrNotAClass,
				Msg: fmt.Sprintf("member access .%s on a non-class value", ex.Sel),
			})
			return typeInfo{}, false
		}
		if ex.Arrow != base.pointer {
			op, hint := "->", "'.'"
			if !ex.Arrow {
				op, hint = ".", "'->'"
			}
			u.Diags = append(u.Diags, Diagnostic{
				Pos: ex.Pos, Kind: ErrPointerMismatch,
				Msg: fmt.Sprintf("'%s%s' used where %s is required", op, ex.Sel, hint),
			})
		}
		return u.resolveMember(ex.Pos, base.class, ex.Sel)
	}
	return typeInfo{}, false
}

// resolveMember runs the lookup algorithm for member `name` in class
// ctx, records the Resolution, emits diagnostics, and returns the
// member's declared type for chaining.
func (u *Unit) resolveMember(pos token.Pos, ctx chg.ClassID, name string) (typeInfo, bool) {
	g := u.Graph
	res := Resolution{Pos: pos, Context: ctx, MemberName: name}
	mid, ok := g.MemberID(name)
	if !ok {
		u.Diags = append(u.Diags, Diagnostic{
			Pos: pos, Kind: ErrUnknownMember,
			Msg: u.unknownMemberMsg(ctx, name),
		})
		u.Resolutions = append(u.Resolutions, res)
		return typeInfo{}, false
	}
	r := u.Analyzer.Lookup(ctx, mid)
	res.Result = r
	switch r.Kind() {
	case core.Undefined:
		u.Diags = append(u.Diags, Diagnostic{
			Pos: pos, Kind: ErrUnknownMember,
			Msg: u.unknownMemberMsg(ctx, name),
		})
	case core.BlueKind:
		u.Diags = append(u.Diags, Diagnostic{
			Pos: pos, Kind: ErrAmbiguousMember,
			Msg: fmt.Sprintf("member %s is ambiguous in %s (%s)", name, g.Name(ctx), r.Format(g)),
		})
	case core.RedKind:
		res.Accessible = u.Access.Accessible(r.Path(), mid)
		if !res.Accessible {
			u.Diags = append(u.Diags, Diagnostic{
				Pos: pos, Kind: ErrInaccessibleMember,
				Msg: fmt.Sprintf("%s::%s is %s in this context", g.Name(r.Class()), name,
					u.Access.AlongPath(r.Path(), mid)),
			})
		}
	}
	u.Resolutions = append(u.Resolutions, res)
	if r.Kind() == core.RedKind {
		if ti, ok := u.memberType[typeKey{r.Class(), mid}]; ok {
			return ti, true
		}
		return typeInfo{}, true
	}
	return typeInfo{}, false
}

// unknownMemberMsg builds the unknown-member message, appending a
// did-you-mean suggestion when one is plausible.
func (u *Unit) unknownMemberMsg(ctx chg.ClassID, name string) string {
	msg := fmt.Sprintf("no member named %s in %s", name, u.Graph.Name(ctx))
	if s := suggest.Members(u.Graph, ctx, name, 1); len(s) > 0 {
		msg += fmt.Sprintf("; did you mean %s?", s[0])
	}
	return msg
}

// ErrorCount returns the number of diagnostics.
func (u *Unit) ErrorCount() int { return len(u.Diags) }

// AmbiguousAccesses returns the resolutions that failed with
// ambiguity.
func (u *Unit) AmbiguousAccesses() []Resolution {
	var out []Resolution
	for _, r := range u.Resolutions {
		if r.Result.Ambiguous() {
			out = append(out, r)
		}
	}
	return out
}
