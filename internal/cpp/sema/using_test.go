package sema

import (
	"strings"
	"testing"

	"cpplookup/internal/access"
)

// The classic use of a using-declaration: disambiguating a lookup by
// re-declaring one inherited member in the derived class. The
// re-declaration dominates every other copy (it is a generated
// definition at the derived class), which is exactly the paper's
// dominance rule at work.
func TestUsingDisambiguates(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
struct B { void m(); };
struct D : A, B {
  using A::m;
};
D d;
void f() { d.m(); }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	r := u.Resolutions[0]
	if !r.Result.Found() || u.Graph.Name(r.Result.Class()) != "D" {
		t.Errorf("d.m resolved to %s (the using re-declares it in D)", r.Result.Format(u.Graph))
	}
}

// Without the using-declaration the same program is ambiguous —
// checked here so the pair documents the semantics.
func TestWithoutUsingIsAmbiguous(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
struct B { void m(); };
struct D : A, B {};
D d;
void f() { d.m(); }
`)
	if len(diagsOf(u, ErrAmbiguousMember)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingChangesAccess(t *testing.T) {
	// The other classic use: re-exporting a privately inherited
	// member as public.
	u := analyze(t, `
class Impl {
public:
  void run();
};
class Facade : private Impl {
public:
  using Impl::run;
};
Facade fc;
void f() { fc.run(); }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	if !u.Resolutions[0].Accessible {
		t.Error("using-declaration should re-export run as public")
	}
}

func TestUsingInheritedIndirectBase(t *testing.T) {
	u := analyze(t, `
struct Root { int v; };
struct Mid : Root {};
struct Leaf : Mid {
  using Root::v;
};
Leaf l;
void f() { l.v = 1; }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingUnknownBase(t *testing.T) {
	u := analyze(t, `
struct D { using Ghost::m; };
`)
	if len(diagsOf(u, ErrUnknownClass)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingNonBase(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
struct Unrelated { void m(); };
struct D : A {
  using Unrelated::m;
};
`)
	diags := diagsOf(u, ErrUnknownClass)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "not a base") {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingUnknownMember(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
struct D : A { using A::ghost; };
`)
	if len(diagsOf(u, ErrUnknownMember)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingAmbiguousTarget(t *testing.T) {
	u := analyze(t, `
struct T { int v; };
struct L : T {};
struct R : T {};
struct M : L, R {};
struct D : M {
  using M::v;
};
`)
	diags := diagsOf(u, ErrAmbiguousMember)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "using-declaration cannot resolve") {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingConflictsWithOwnDeclaration(t *testing.T) {
	u := analyze(t, `
struct A { void m(); };
struct D : A {
  void m();
  using A::m;
};
`)
	if len(diagsOf(u, ErrDuplicateMember)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestUsingPreservesStaticness(t *testing.T) {
	// A using-declaration of a static member keeps the Definition-17
	// behaviour in further-derived diamonds.
	u := analyze(t, `
struct S { static int n; };
struct A : S {};
struct B : S {};
struct D : A, B {
  using S::n;
};
struct L : D {};
struct R : D {};
struct X : L, R {};
X x;
void f() { x.n = 1; }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	r := u.Resolutions[0]
	if !r.Result.Found() || u.Graph.Name(r.Result.Class()) != "D" {
		t.Errorf("x.n resolved to %s", r.Result.Format(u.Graph))
	}
}

func TestUsingAliasKeepsMemberTypeForChaining(t *testing.T) {
	u := analyze(t, `
struct Inner { int depth; };
struct HasInner { Inner in; };
struct Wrap : HasInner {
  using HasInner::in;
};
Wrap w;
void f() { w.in.depth = 1; }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	if len(u.Resolutions) != 2 {
		t.Fatalf("resolutions: %+v", u.Resolutions)
	}
	if u.Graph.Name(u.Resolutions[1].Context) != "Inner" {
		t.Errorf("chained context = %s", u.Graph.Name(u.Resolutions[1].Context))
	}
}

// Method parameters bind in body scope.
func TestMethodAndFunctionParameters(t *testing.T) {
	u := analyze(t, `
struct Target { void hit(); };
struct Gun {
  void fire(Target *t, int power) {
    t->hit();
    power = 2;
  }
};
void duel(Target a, Target b) {
  a.hit();
  b.hit();
}
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	if len(u.Resolutions) != 3 {
		t.Errorf("resolutions = %d, want 3", len(u.Resolutions))
	}
}

func TestVoidParameterListMeansEmpty(t *testing.T) {
	u := analyze(t, `
struct A { void m(void); };
A a;
void f(void) { a.m(); }
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestCallArguments(t *testing.T) {
	u := analyze(t, `
struct Logger { void log(int level, int code); };
Logger lg;
int lvl;
void f() { lg.log(lvl, 3); lg.log(undefined_arg, 1); }
`)
	// One unknown-name diagnostic from the bad argument; the member
	// accesses themselves resolve.
	if len(diagsOf(u, ErrUnknownName)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
	for _, r := range u.Resolutions {
		if !r.Result.Found() {
			t.Errorf("resolution failed: %+v", r)
		}
	}
}

func TestOutOfClassMethodDefinition(t *testing.T) {
	u := analyze(t, `
struct Counter {
  int n;
  void bump(int by);
};
void Counter::bump(int by) {
  n = n + by;     // unqualified member access in the method scope
}
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	// The unqualified n resolves against Counter.
	if len(u.Resolutions) != 2 {
		t.Fatalf("resolutions: %+v", u.Resolutions)
	}
	for _, r := range u.Resolutions {
		if u.Graph.Name(r.Context) != "Counter" || r.MemberName != "n" {
			t.Errorf("resolution: %+v", r)
		}
	}
}

func TestOutOfClassUnknownClass(t *testing.T) {
	u := analyze(t, `void Ghost::m() {}`)
	if len(diagsOf(u, ErrUnknownClass)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestOutOfClassUndeclaredMethod(t *testing.T) {
	u := analyze(t, `
struct X { void real(); };
void X::fake() {}
`)
	if len(diagsOf(u, ErrUnknownMember)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

func TestOutOfClassIsNotAGlobalName(t *testing.T) {
	u := analyze(t, `
struct X { void m(); };
void X::m() {}
void f() { m(); }   // m is not a global function
`)
	if len(diagsOf(u, ErrUnknownName)) != 1 {
		t.Fatalf("diags: %v", u.Diags)
	}
}

// Every member a class declares gets its own position and access
// entry, under the member id its declaration carries: an overload set
// is one member at its first declaration, and a resolved using is a
// declaration after the class's own members. D's members are interned
// in an order (y, f, s after A's m and z) unlike their declaration
// order, so reading the wrong declaration's id shows up as a wrong
// line or level.
func TestMemberPositionsAndAccessPerDeclaration(t *testing.T) {
	u := analyze(t, `struct A { void m(); int z; };
class D : public A {
  int y;
  void f(int);
  void f(double);
protected:
  static int s;
  using A::m;
public:
  int z;
};
`)
	if len(u.Diags) != 0 {
		t.Fatalf("diags: %v", u.Diags)
	}
	d := u.Graph.MustID("D")
	want := []struct {
		name  string
		line  int
		level access.Level
	}{
		{"y", 3, access.Private},
		{"f", 4, access.Private},
		{"s", 7, access.Protected},
		{"z", 10, access.Public},
		{"m", 8, access.Protected},
	}
	decls := u.Graph.DeclaredMembers(d)
	if len(decls) != len(want) {
		t.Fatalf("D declares %d members, want %d", len(decls), len(want))
	}
	for i, w := range want {
		if decls[i].Name != w.name {
			t.Errorf("declaration %d is %s, want %s", i, decls[i].Name, w.name)
		}
		m := u.Graph.MustMemberID(w.name)
		if p, ok := u.MemberPos(d, m); !ok || p.Line != w.line {
			t.Errorf("MemberPos(D, %s) = %v, %v; want line %d", w.name, p, ok, w.line)
		}
		if got := u.Access.Member(d, m); got != w.level {
			t.Errorf("access of D::%s = %s, want %s", w.name, got, w.level)
		}
	}
}
