package overlog

import (
	"fmt"
	"slices"
	"strconv"

	"p2/internal/val"
)

// Parse turns OverLog source into a Program.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.cur.kind != tokEOF {
		if err := p.statement(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// MustParse parses or panics — for embedding known-good specs.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lex *lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.cur.line, Col: p.cur.col, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(k tokKind) (token, error) {
	if p.cur.kind != k {
		return token{}, p.errf("expected %v, found %v %q", k, p.cur.kind, p.cur.text)
	}
	t := p.cur
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// accept consumes the token if it matches, reporting whether it did.
func (p *parser) accept(k tokKind) (bool, error) {
	if p.cur.kind != k {
		return false, nil
	}
	return true, p.advance()
}

func (p *parser) statement(prog *Program) error {
	if p.cur.kind != tokIdent && p.cur.kind != tokVar {
		return p.errf("expected statement, found %v %q", p.cur.kind, p.cur.text)
	}
	switch p.cur.text {
	case "materialize":
		return p.materialize(prog)
	case "define":
		return p.define(prog)
	case "watch":
		return p.watch(prog)
	}
	return p.ruleOrFact(prog)
}

func (p *parser) materialize(prog *Program) error {
	if err := p.advance(); err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	m := &Materialize{Name: name.text}
	// Lifetime.
	switch {
	case p.cur.kind == tokIdent && p.cur.text == "infinity":
		m.Infinite = true
		if err := p.advance(); err != nil {
			return err
		}
	case p.cur.kind == tokInt || p.cur.kind == tokFloat:
		f, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return p.errf("materialize(%s): bad lifetime %q", m.Name, p.cur.text)
		}
		m.Lifetime = f
		if err := p.advance(); err != nil {
			return err
		}
	default:
		return p.errf("materialize(%s): bad lifetime %q", m.Name, p.cur.text)
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	// Size.
	switch {
	case p.cur.kind == tokIdent && p.cur.text == "infinity":
		m.Size = 0
		if err := p.advance(); err != nil {
			return err
		}
	case p.cur.kind == tokInt:
		n, err := strconv.Atoi(p.cur.text)
		if err != nil {
			return p.errf("materialize(%s): bad size %q", m.Name, p.cur.text)
		}
		m.Size = n
		if err := p.advance(); err != nil {
			return err
		}
	default:
		return p.errf("materialize(%s): bad size %q", m.Name, p.cur.text)
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if kw.text != "keys" {
		return p.errf("materialize(%s): expected keys(...), found %q", m.Name, kw.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	for {
		n, err := p.expect(tokInt)
		if err != nil {
			return err
		}
		k, err := strconv.Atoi(n.text)
		if err != nil || k < 1 {
			return p.errf("materialize(%s): key positions are 1-based", m.Name)
		}
		m.Keys = append(m.Keys, k)
		ok, err := p.accept(tokComma)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return err
	}
	prog.Materialize = append(prog.Materialize, m)
	return nil
}

func (p *parser) define(prog *Program) error {
	if err := p.advance(); err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	v, err := p.literal()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return err
	}
	prog.Defines = append(prog.Defines, &Define{Name: name.text, Value: v})
	return nil
}

// literal parses a constant value for define(): number, string, bool,
// or negative number.
func (p *parser) literal() (val.Value, error) {
	neg := false
	if ok, err := p.accept(tokMinus); err != nil {
		return val.Null, err
	} else if ok {
		neg = true
	}
	switch p.cur.kind {
	case tokInt:
		text := p.cur.text
		if neg {
			text = "-" + text // so the most negative int64 parses
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return val.Null, p.errf("bad integer %q", text)
		}
		return val.Int(n), p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return val.Null, p.errf("bad float %q", p.cur.text)
		}
		if neg {
			f = -f
		}
		return val.Float(f), p.advance()
	case tokString:
		if neg {
			return val.Null, p.errf("cannot negate a string")
		}
		s := p.cur.text
		err := p.advance()
		return val.Str(s), err
	case tokIdent:
		if neg {
			return val.Null, p.errf("cannot negate %q", p.cur.text)
		}
		switch p.cur.text {
		case "true":
			return val.Bool(true), p.advance()
		case "false":
			return val.Bool(false), p.advance()
		}
	}
	return val.Null, p.errf("expected literal, found %q", p.cur.text)
}

func (p *parser) watch(prog *Program) error {
	if err := p.advance(); err != nil {
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return err
	}
	prog.Watches = append(prog.Watches, name.text)
	return nil
}

// ruleOrFact parses "[ID] [delete] atom [:- body]."
func (p *parser) ruleOrFact(prog *Program) error {
	line := p.cur.line
	id := ""
	// A leading identifier is a rule ID when the following token starts
	// a head (another identifier or "delete"), not "(" or "@". The word
	// "delete" itself is always the deletion keyword, never an ID.
	if (p.cur.kind == tokIdent || p.cur.kind == tokVar) && p.cur.text != "delete" {
		save := p.cur
		if err := p.advance(); err != nil {
			return err
		}
		if p.cur.kind == tokIdent || p.cur.kind == tokVar {
			id = save.text
		} else {
			// Not an ID: rewind by re-parsing from the atom using the
			// saved head token.
			return p.ruleBody(prog, "", save, line, false)
		}
	}
	del := false
	if p.cur.kind == tokIdent && p.cur.text == "delete" {
		del = true
		if err := p.advance(); err != nil {
			return err
		}
		if p.cur.kind != tokIdent {
			return p.errf("expected head predicate after delete, found %q", p.cur.text)
		}
	}
	headTok := p.cur
	if headTok.kind != tokIdent {
		return p.errf("expected head predicate, found %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return err
	}
	return p.ruleBody(prog, id, headTok, line, del)
}

func (p *parser) ruleBody(prog *Program, id string, headTok token, line int, del bool) error {
	head, err := p.atomAfterName(headTok)
	if err != nil {
		return err
	}
	if ok, err := p.accept(tokPeriod); err != nil {
		return err
	} else if ok {
		if del {
			return p.errf("facts cannot be deletions")
		}
		prog.Facts = append(prog.Facts, &Fact{ID: id, Atom: head, Line: line})
		return nil
	}
	if _, err := p.expect(tokIf); err != nil {
		return err
	}
	r := &Rule{ID: id, Delete: del, Head: head, Line: line}
	for {
		t, err := p.term()
		if err != nil {
			return err
		}
		r.Body = append(r.Body, t)
		ok, err := p.accept(tokComma)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return err
	}
	prog.Rules = append(prog.Rules, r)
	return nil
}

// atomAfterName parses "@Loc(args)" given the already-consumed name.
func (p *parser) atomAfterName(name token) (*Atom, error) {
	a := &Atom{Name: name.text}
	if ok, err := p.accept(tokAt); err != nil {
		return nil, err
	} else if ok {
		loc, err := p.locName()
		if err != nil {
			return nil, err
		}
		a.Loc = loc
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if ok, err := p.accept(tokRParen); err != nil {
		return nil, err
	} else if ok {
		return a, nil
	}
	for {
		arg, err := p.arg()
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, arg)
		ok, err := p.accept(tokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return a, nil
}

// locName accepts a variable or identifier as a location annotation.
// (Facts use lowercase placeholders like landmark@ni; variables are the
// common case.)
func (p *parser) locName() (string, error) {
	if p.cur.kind == tokVar || p.cur.kind == tokIdent {
		name := p.cur.text
		return name, p.advance()
	}
	return "", p.errf("expected location after @, found %q", p.cur.text)
}

// arg parses one atom argument: aggregate, wildcard, or expression.
func (p *parser) arg() (Expr, error) {
	// Aggregate: ident '<' (var | '*') '>' where ident is an agg fn.
	if p.cur.kind == tokIdent && isAggFn(p.cur.text) {
		fn := p.cur.text
		save := *p.lex
		saveTok := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind == tokLt {
			if err := p.advance(); err != nil {
				return nil, err
			}
			var varName string
			switch p.cur.kind {
			case tokVar:
				varName = p.cur.text
			case tokStar:
				varName = "*"
			default:
				return nil, p.errf("expected variable or * in %s<>", fn)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokGt); err != nil {
				return nil, err
			}
			return &AggRef{Fn: fn, Var: varName}, nil
		}
		// Not an aggregate after all; rewind.
		*p.lex = save
		p.cur = saveTok
	}
	return p.expr()
}

func isAggFn(s string) bool {
	switch s {
	case "min", "max", "count", "sum", "avg":
		return true
	}
	return false
}

// term parses one body term.
func (p *parser) term() (Term, error) {
	// "not" atom
	if p.cur.kind == tokIdent && p.cur.text == "not" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		a, err := p.atomAfterName(name)
		if err != nil {
			return nil, err
		}
		a.Neg = true
		return a, nil
	}
	// Var := expr
	if p.cur.kind == tokVar {
		save := *p.lex
		saveTok := p.cur
		name := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind == tokAssign {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &Assign{Var: name, Expr: e}, nil
		}
		// Not an assignment: rewind and parse as expression (condition).
		*p.lex = save
		p.cur = saveTok
	}
	// Predicate: lowercase name followed by '(' or '@' — except
	// function calls (f_*), which are conditions.
	if p.cur.kind == tokIdent && !isFuncName(p.cur.text) {
		save := *p.lex
		saveTok := p.cur
		name := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind == tokLParen || p.cur.kind == tokAt {
			return p.atomAfterName(name)
		}
		*p.lex = save
		p.cur = saveTok
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Cond{Expr: e}, nil
}

func isFuncName(s string) bool {
	return len(s) > 2 && s[0] == 'f' && s[1] == '_'
}

// binaryLevels lists the infix operators by precedence, loosest first:
// || ; && ; comparisons (and "in", see binary) ; + - ; * / % ; << >>.
// Every level is left-associative; unary operators bind tighter still.
var binaryLevels = [][]tokKind{
	{tokOr},
	{tokAnd},
	{tokEq, tokNe, tokLt, tokLe, tokGt, tokGe},
	{tokPlus, tokMinus},
	{tokStar, tokSlash, tokPct},
	{tokShl, tokShr},
}

const (
	cmpLevel = 2 // where "K in (Lo, Hi]" parses
	addLevel = 3 // the level interval bounds parse at
)

func (p *parser) expr() (Expr, error) { return p.binary(0) }

// binary parses a chain of the operators at level, each operand an
// expression of the levels above it. An "in" ends its comparison chain.
func (p *parser) binary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.unaryExpr()
	}
	x, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		if level == cmpLevel && p.cur.kind == tokIdent && p.cur.text == "in" {
			return p.rangeTest(x)
		}
		op := p.cur.kind
		if !slices.Contains(binaryLevels[level], op) {
			return x, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op.String(), X: x, Y: y}
	}
}

// rangeTest parses "in (Lo, Hi]" after K has been parsed.
func (p *parser) rangeTest(k Expr) (Expr, error) {
	if err := p.advance(); err != nil { // consume "in"
		return nil, err
	}
	rt := &RangeTest{K: k}
	switch p.cur.kind {
	case tokLParen:
	case tokLBracket:
		rt.LoClosed = true
	default:
		return nil, p.errf("expected ( or [ after in, found %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	lo, err := p.binary(addLevel)
	if err != nil {
		return nil, err
	}
	rt.Lo = lo
	if _, err := p.expect(tokComma); err != nil {
		return nil, err
	}
	hi, err := p.binary(addLevel)
	if err != nil {
		return nil, err
	}
	rt.Hi = hi
	switch p.cur.kind {
	case tokRParen:
	case tokRBracket:
		rt.HiClosed = true
	default:
		return nil, p.errf("expected ) or ] closing interval, found %q", p.cur.text)
	}
	return rt, p.advance()
}

// unaryExpr parses a primary under any number of prefix "-" and "!".
func (p *parser) unaryExpr() (Expr, error) {
	op := p.cur.kind
	if op != tokMinus && op != tokBang {
		return p.primary()
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	return &Unary{Op: op.String(), X: x}, nil
}

func (p *parser) primary() (Expr, error) {
	switch p.cur.kind {
	case tokInt:
		n, err := strconv.ParseInt(p.cur.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.cur.text)
		}
		return &Lit{Val: val.Int(n)}, p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.cur.text)
		}
		return &Lit{Val: val.Float(f)}, p.advance()
	case tokString:
		s := p.cur.text
		return &Lit{Val: val.Str(s)}, p.advance()
	case tokWildcard:
		return &Wildcard{}, p.advance()
	case tokVar:
		name := p.cur.text
		return &VarRef{Name: name}, p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := p.cur.text
		switch name {
		case "true":
			return &Lit{Val: val.Bool(true)}, p.advance()
		case "false":
			return &Lit{Val: val.Bool(false)}, p.advance()
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if isFuncName(name) {
			call := &Call{Name: name}
			if ok, err := p.accept(tokAt); err != nil {
				return nil, err
			} else if ok {
				loc, err := p.locName()
				if err != nil {
					return nil, err
				}
				call.Loc = loc
			}
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			if ok, err := p.accept(tokRParen); err != nil {
				return nil, err
			} else if ok {
				return call, nil
			}
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				ok, err := p.accept(tokComma)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Symbolic constant.
		return &ConstRef{Name: name}, nil
	}
	return nil, p.errf("expected expression, found %v %q", p.cur.kind, p.cur.text)
}
