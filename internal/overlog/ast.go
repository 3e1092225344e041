package overlog

import (
	"fmt"
	"strconv"
	"strings"

	"p2/internal/val"
)

// Program is a parsed OverLog specification.
type Program struct {
	Materialize []*Materialize
	Defines     []*Define
	Watches     []string
	Rules       []*Rule
	Facts       []*Fact
}

// Materialize declares a soft-state table: name, tuple lifetime in
// seconds (Infinite for "infinity", or the name of a define holding it),
// maximum row count (0 for "infinity"), and 1-based primary key field
// positions.
type Materialize struct {
	Name         string
	Lifetime     float64
	LifetimeName string // the define that holds the lifetime, resolved at compile time
	Infinite     bool   // lifetime was the literal "infinity"
	Size         int    // 0 = unbounded
	Keys         []int
}

// Define binds a symbolic constant (e.g. tFix, addThresh) to a literal
// value. Constants may also be supplied programmatically at plan time.
type Define struct {
	Name  string
	Value val.Value
}

// Rule is one OverLog rule: head :- body.
type Rule struct {
	ID     string
	Delete bool
	Head   *Atom
	Body   []Term
}

// Fact is a body-less statement inserting one tuple at node start.
// Variables in fact arguments denote the local node's address.
type Fact struct {
	ID   string
	Atom *Atom
}

// Term is a rule-body element: an Atom (predicate, possibly negated),
// an Assign (Var := expr), or a Cond (boolean expression).
type Term interface {
	term()
	String() string
}

// Atom is a predicate: name@Loc(args...).
type Atom struct {
	Name string
	Loc  string // location variable name; "" when unspecified
	Args []Expr
	Neg  bool // "not" prefix
}

// Assign binds a new variable to an expression value.
type Assign struct {
	Var  string
	Expr Expr
}

// Cond is a boolean filter expression.
type Cond struct {
	Expr Expr
}

func (*Atom) term()   {}
func (*Assign) term() {}
func (*Cond) term()   {}

// Expr is an OverLog expression node.
type Expr interface {
	expr()
	String() string
}

// VarRef references a variable.
type VarRef struct{ Name string }

// Wildcard is the don't-care argument "_".
type Wildcard struct{}

// Lit is a literal constant value.
type Lit struct{ Val val.Value }

// ConstRef references a symbolic constant to be resolved from defines.
type ConstRef struct{ Name string }

// Call invokes a built-in function: f_now(), f_rand(), f_coinFlip(p),
// f_sha1(x), f_localAddr(). The optional Loc annotation (f_now@Y())
// is parsed and retained but must match the rule's location.
type Call struct {
	Name string
	Loc  string
	Args []Expr
}

// Unary applies a prefix operator: "-" or "!".
type Unary struct {
	Op string
	X  Expr
}

// Binary applies an infix operator.
type Binary struct {
	Op   string
	X, Y Expr
}

// RangeTest is circular-interval membership: K in (Lo, Hi].
type RangeTest struct {
	K, Lo, Hi          Expr
	LoClosed, HiClosed bool
}

// AggRef is an aggregate in a rule head: min<D>, count<*>, ...
type AggRef struct {
	Fn  string // min, max, count, sum, avg
	Var string // variable name, or "*" for count<*>
}

func (*VarRef) expr()    {}
func (*Wildcard) expr()  {}
func (*Lit) expr()       {}
func (*ConstRef) expr()  {}
func (*Call) expr()      {}
func (*Unary) expr()     {}
func (*Binary) expr()    {}
func (*RangeTest) expr() {}
func (*AggRef) expr()    {}

// Walk calls f on e and then on each expression inside it, depth first
// and left to right: a Unary's operand, a Binary's X before its Y, a
// RangeTest's K, Lo and Hi, a Call's arguments in order.
func Walk(e Expr, f func(Expr)) {
	f(e)
	switch x := e.(type) {
	case *Unary:
		Walk(x.X, f)
	case *Binary:
		Walk(x.X, f)
		Walk(x.Y, f)
	case *RangeTest:
		Walk(x.K, f)
		Walk(x.Lo, f)
		Walk(x.Hi, f)
	case *Call:
		for _, a := range x.Args {
			Walk(a, f)
		}
	}
}

// String renderings reproduce parseable OverLog, used by tests
// (print→reparse round trips) and the olgc inspector.

func (v *VarRef) String() string   { return v.Name }
func (*Wildcard) String() string   { return "_" }
func (c *ConstRef) String() string { return c.Name }

func (l *Lit) String() string { return litString(l.Val) }

// litString renders a literal so that the lexer reads it back as the
// same value. A string goes between quotes exactly as written: the
// lexer has no escapes, so a parsed string holds neither a quote nor a
// newline, and Go's %q would add backslashes it keeps. A float is
// digits with a decimal point, the only float form the lexer knows.
func litString(v val.Value) string {
	switch v.Kind() {
	case val.KStr:
		return `"` + v.AsStr() + `"`
	case val.KFloat:
		return floatString(v.AsFloat())
	}
	return v.String()
}

// floatString renders a finite float as digits with a decimal point and
// no exponent: 1000000.0, not 1e+06.
func floatString(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	loc := ""
	if c.Loc != "" {
		loc = "@" + c.Loc
	}
	return fmt.Sprintf("%s%s(%s)", c.Name, loc, strings.Join(args, ", "))
}

func (u *Unary) String() string { return u.Op + operand(u.X) }

func (b *Binary) String() string {
	if b.Op == "&&" || b.Op == "||" {
		return fmt.Sprintf("(%s %s %s)", b.X.String(), b.Op, b.Y.String())
	}
	return fmt.Sprintf("(%s %s %s)", operand(b.X), b.Op, operand(b.Y))
}

func (r *RangeTest) String() string {
	lo, hi := "(", ")"
	if r.LoClosed {
		lo = "["
	}
	if r.HiClosed {
		hi = "]"
	}
	return fmt.Sprintf("%s in %s%s, %s%s", operand(r.K), lo, operand(r.Lo), operand(r.Hi), hi)
}

// operand renders e where an operator other than && and || reads it. A
// range test binds looser than all of those, so it goes in parentheses
// there; everything else prints its own.
func operand(e Expr) string {
	if _, ok := e.(*RangeTest); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (a *AggRef) String() string { return fmt.Sprintf("%s<%s>", a.Fn, a.Var) }

func (a *Atom) String() string {
	args := make([]string, len(a.Args))
	for i, arg := range a.Args {
		args[i] = arg.String()
	}
	loc := ""
	if a.Loc != "" {
		loc = "@" + a.Loc
	}
	neg := ""
	if a.Neg {
		neg = "not "
	}
	return fmt.Sprintf("%s%s%s(%s)", neg, a.Name, loc, strings.Join(args, ", "))
}

func (a *Assign) String() string { return fmt.Sprintf("%s := %s", a.Var, a.Expr.String()) }
func (c *Cond) String() string   { return c.Expr.String() }

func (r *Rule) String() string {
	var sb strings.Builder
	if r.ID != "" {
		sb.WriteString(r.ID)
		sb.WriteByte(' ')
	}
	if r.Delete {
		sb.WriteString("delete ")
	}
	sb.WriteString(r.Head.String())
	sb.WriteString(" :- ")
	terms := make([]string, len(r.Body))
	for i, t := range r.Body {
		terms[i] = t.String()
	}
	sb.WriteString(strings.Join(terms, ", "))
	sb.WriteByte('.')
	return sb.String()
}

func (f *Fact) String() string {
	if f.ID != "" {
		return f.ID + " " + f.Atom.String() + "."
	}
	return f.Atom.String() + "."
}

func (m *Materialize) String() string {
	life := "infinity"
	switch {
	case m.LifetimeName != "":
		life = m.LifetimeName
	case !m.Infinite:
		life = strconv.FormatFloat(m.Lifetime, 'f', -1, 64)
	}
	size := "infinity"
	if m.Size > 0 {
		size = fmt.Sprintf("%d", m.Size)
	}
	keys := make([]string, len(m.Keys))
	for i, k := range m.Keys {
		keys[i] = fmt.Sprintf("%d", k)
	}
	return fmt.Sprintf("materialize(%s, %s, %s, keys(%s)).",
		m.Name, life, size, strings.Join(keys, ","))
}

// String renders the whole program as parseable OverLog.
func (p *Program) String() string {
	var sb strings.Builder
	for _, m := range p.Materialize {
		sb.WriteString(m.String())
		sb.WriteByte('\n')
	}
	for _, d := range p.Defines {
		fmt.Fprintf(&sb, "define(%s, %s).\n", d.Name, litString(d.Value))
	}
	for _, w := range p.Watches {
		fmt.Fprintf(&sb, "watch(%s).\n", w)
	}
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RuleCount returns the number of rules — the paper's specification
// complexity metric (Chord in 47 rules, Narada in 16).
func (p *Program) RuleCount() int { return len(p.Rules) }
