package overlog

import (
	"strings"
	"testing"

	"p2/internal/val"
)

// The marker methods exist to seal the Term/Expr interfaces; exercise
// them so interface conformance stays checked.
func TestInterfaceMarkers(t *testing.T) {
	terms := []Term{&Atom{}, &Assign{}, &Cond{}}
	for _, trm := range terms {
		trm.term()
	}
	exprs := []Expr{
		&VarRef{}, &Wildcard{}, &Lit{}, &ConstRef{}, &Call{},
		&Unary{}, &Binary{}, &RangeTest{}, &AggRef{},
	}
	for _, e := range exprs {
		e.expr()
	}
}

func TestExprStringRendering(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&VarRef{Name: "X"}, "X"},
		{&Wildcard{}, "_"},
		{&ConstRef{Name: "tFix"}, "tFix"},
		{&Lit{Val: val.Str("hi")}, `"hi"`},
		{&Lit{Val: val.Int(5)}, "5"},
		{&Unary{Op: "-", X: &VarRef{Name: "V"}}, "-V"},
		{&Binary{Op: "+", X: &VarRef{Name: "A"}, Y: &Lit{Val: val.Int(1)}}, "(A + 1)"},
		{&Call{Name: "f_now"}, "f_now()"},
		{&Call{Name: "f_now", Loc: "Y"}, "f_now@Y()"},
		{&Call{Name: "f_coinFlip", Args: []Expr{&Lit{Val: val.Float(0.5)}}}, "f_coinFlip(0.5)"},
		{&AggRef{Fn: "min", Var: "D"}, "min<D>"},
		{&AggRef{Fn: "count", Var: "*"}, "count<*>"},
		{&RangeTest{
			K: &VarRef{Name: "K"}, Lo: &VarRef{Name: "N"}, Hi: &VarRef{Name: "S"},
			HiClosed: true,
		}, "K in (N, S]"},
		{&RangeTest{
			K: &VarRef{Name: "K"}, Lo: &VarRef{Name: "N"}, Hi: &VarRef{Name: "S"},
			LoClosed: true,
		}, "K in [N, S)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTermAndStatementRendering(t *testing.T) {
	atom := &Atom{Name: "member", Loc: "X", Args: []Expr{&VarRef{Name: "X"}, &Wildcard{}}}
	if got := atom.String(); got != "member@X(X, _)" {
		t.Errorf("atom = %q", got)
	}
	neg := &Atom{Name: "seen", Neg: true, Args: []Expr{&VarRef{Name: "X"}}}
	if got := neg.String(); got != "not seen(X)" {
		t.Errorf("negated atom = %q", got)
	}
	asg := &Assign{Var: "T", Expr: &Call{Name: "f_now"}}
	if got := asg.String(); got != "T := f_now()" {
		t.Errorf("assign = %q", got)
	}
	cond := &Cond{Expr: &Binary{Op: ">", X: &VarRef{Name: "C"}, Y: &Lit{Val: val.Int(4)}}}
	if got := cond.String(); got != "(C > 4)" {
		t.Errorf("cond = %q", got)
	}
	fact := &Fact{ID: "F0", Atom: &Atom{Name: "pred", Args: []Expr{&VarRef{Name: "NI"}}}}
	if got := fact.String(); got != "F0 pred(NI)." {
		t.Errorf("fact = %q", got)
	}
	rule := &Rule{
		ID: "L3", Delete: true,
		Head: &Atom{Name: "neighbor", Loc: "X", Args: []Expr{&VarRef{Name: "X"}}},
		Body: []Term{&Atom{Name: "dead", Args: []Expr{&VarRef{Name: "X"}}}},
	}
	if got := rule.String(); got != "L3 delete neighbor@X(X) :- dead(X)." {
		t.Errorf("rule = %q", got)
	}
}

func TestMaterializeRendering(t *testing.T) {
	m := &Materialize{Name: "succ", Lifetime: 30, Size: 16, Keys: []int{2}}
	if got := m.String(); got != "materialize(succ, 30, 16, keys(2))." {
		t.Errorf("materialize = %q", got)
	}
	inf := &Materialize{Name: "node", Infinite: true, Size: 0, Keys: []int{1}}
	if got := inf.String(); got != "materialize(node, infinity, infinity, keys(1))." {
		t.Errorf("materialize = %q", got)
	}
}

func TestMustParse(t *testing.T) {
	p := MustParse(`r out@X(X) :- in@X(X).`)
	if p.RuleCount() != 1 {
		t.Fatal("MustParse lost the rule")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse(`!!`)
}

func TestProgramStringIncludesDefinesAndWatches(t *testing.T) {
	p := MustParse(`
		define(tFix, 10).
		define(name, "x").
		watch(lookup).
	`)
	s := p.String()
	for _, want := range []string{"define(tFix, 10).", `define(name, "x").`, "watch(lookup)."} {
		if !strings.Contains(s, want) {
			t.Errorf("program dump missing %q:\n%s", want, s)
		}
	}
}

// TestWalkVisitsDepthFirstLeftToRight pins the order the planner's
// checks rely on to name the first offending variable or call.
func TestWalkVisitsDepthFirstLeftToRight(t *testing.T) {
	prog := MustParse(`r out(X) :- e(X), f_sha1(A - -B) in (C, f_toID(D)], !(E < F).`)
	var got []string
	for _, trm := range prog.Rules[0].Body[1:] {
		Walk(trm.(*Cond).Expr, func(e Expr) {
			switch x := e.(type) {
			case *VarRef:
				got = append(got, x.Name)
			case *Call:
				got = append(got, x.Name)
			}
		})
	}
	if want := "f_sha1 A B C f_toID D E F"; strings.Join(got, " ") != want {
		t.Fatalf("Walk visited %q, want %q", strings.Join(got, " "), want)
	}
}
