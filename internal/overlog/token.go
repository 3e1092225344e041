// Package overlog implements the OverLog language (§2.2): a Datalog
// dialect extended with location specifiers (@X), soft-state table
// declarations (materialize), continuous queries over streams, explicit
// deletion, aggregates in rule heads, and ring-interval predicates
// ("K in (N,S]").
//
// The package provides the lexer, parser, and AST. Semantic analysis
// and compilation to dataflow graphs live in internal/planner.
//
// Grammar sketch:
//
//	program     = { statement } .
//	statement   = materialize | define | watch | rule | fact .
//	materialize = "materialize" "(" name "," lifetime "," size ","
//	              "keys" "(" int { "," int } ")" ")" "." .
//	lifetime    = number | "infinity" | name .   (a name is a define)
//	define      = "define" "(" name "," literal ")" "." .
//	watch       = "watch" "(" name ")" "." .
//	rule        = [ ruleID ] [ "delete" ] atom ":-" term { "," term } "." .
//	fact        = [ ruleID ] atom "." .
//	term        = [ "not" ] atom | var ":=" expr | expr .
//	atom        = name [ "@" var ] "(" [ arg { "," arg } ] ")" .
//	arg         = expr | aggfn "<" ( var | "*" ) ">" | "_" .
//
// Expressions use C-like operators with one deliberate deviation: shifts
// bind tighter than + and -, so Chord's finger target "N + 1 << I"
// parses as N + (1 << I), matching the paper's intent.
package overlog

import "fmt"

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF      tokKind = iota
	tokIdent            // lower-case initial: relation/function/constant names
	tokVar              // upper-case initial: variables
	tokWildcard         // _
	tokInt
	tokFloat
	tokString

	tokLParen   // (
	tokRParen   // )
	tokLBracket // [
	tokRBracket // ]
	tokComma    // ,
	tokPeriod   // .
	tokAt       // @
	tokIf       // :-
	tokAssign   // :=

	tokPlus  // +
	tokMinus // -
	tokStar  // *
	tokSlash // /
	tokPct   // %
	tokShl   // <<
	tokShr   // >>
	tokLt    // <
	tokGt    // >
	tokLe    // <=
	tokGe    // >=
	tokEq    // ==
	tokNe    // !=
	tokAnd   // &&
	tokOr    // ||
	tokBang  // !
)

var tokNames = map[tokKind]string{
	tokEOF: "EOF", tokIdent: "identifier", tokVar: "variable",
	tokWildcard: "_", tokInt: "integer", tokFloat: "float",
	tokString: "string", tokLParen: "(", tokRParen: ")",
	tokLBracket: "[", tokRBracket: "]", tokComma: ",", tokPeriod: ".",
	tokAt: "@", tokIf: ":-", tokAssign: ":=", tokPlus: "+",
	tokMinus: "-", tokStar: "*", tokSlash: "/", tokPct: "%",
	tokShl: "<<", tokShr: ">>", tokLt: "<", tokGt: ">", tokLe: "<=",
	tokGe: ">=", tokEq: "==", tokNe: "!=", tokAnd: "&&", tokOr: "||",
	tokBang: "!",
}

func (k tokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexeme with source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

// Error is a parse or lex failure with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("overlog: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer turns OverLog source into tokens. It strips //, /* */ and #
// comments.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.peekByte()

	switch {
	case isLetter(c):
		start := l.pos
		for l.pos < len(l.src) && (isLetter(l.peekByte()) || isDigit(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if text == "_" {
			return mk(tokWildcard, text), nil
		}
		if text[0] >= 'A' && text[0] <= 'Z' {
			return mk(tokVar, text), nil
		}
		return mk(tokIdent, text), nil

	case isDigit(c):
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.advance()
		}
		// A '.' is a decimal point only when a digit follows; otherwise
		// it is the statement terminator.
		if l.peekByte() == '.' && isDigit(l.peekByte2()) {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		if isFloat {
			return mk(tokFloat, l.src[start:l.pos]), nil
		}
		return mk(tokInt, l.src[start:l.pos]), nil

	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '"' {
			if l.peekByte() == '\n' {
				return token{}, l.errf("newline in string literal")
			}
			l.advance()
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string literal")
		}
		text := l.src[start:l.pos]
		l.advance() // closing quote
		return mk(tokString, text), nil
	}

	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case ":-":
		l.advance()
		l.advance()
		return mk(tokIf, two), nil
	case ":=":
		l.advance()
		l.advance()
		return mk(tokAssign, two), nil
	case "<<":
		l.advance()
		l.advance()
		return mk(tokShl, two), nil
	case ">>":
		l.advance()
		l.advance()
		return mk(tokShr, two), nil
	case "<=":
		l.advance()
		l.advance()
		return mk(tokLe, two), nil
	case ">=":
		l.advance()
		l.advance()
		return mk(tokGe, two), nil
	case "==":
		l.advance()
		l.advance()
		return mk(tokEq, two), nil
	case "!=":
		l.advance()
		l.advance()
		return mk(tokNe, two), nil
	case "&&":
		l.advance()
		l.advance()
		return mk(tokAnd, two), nil
	case "||":
		l.advance()
		l.advance()
		return mk(tokOr, two), nil
	}

	l.advance()
	switch c {
	case '(':
		return mk(tokLParen, "("), nil
	case ')':
		return mk(tokRParen, ")"), nil
	case '[':
		return mk(tokLBracket, "["), nil
	case ']':
		return mk(tokRBracket, "]"), nil
	case ',':
		return mk(tokComma, ","), nil
	case '.':
		return mk(tokPeriod, "."), nil
	case '@':
		return mk(tokAt, "@"), nil
	case '+':
		return mk(tokPlus, "+"), nil
	case '-':
		return mk(tokMinus, "-"), nil
	case '*':
		return mk(tokStar, "*"), nil
	case '/':
		return mk(tokSlash, "/"), nil
	case '%':
		return mk(tokPct, "%"), nil
	case '<':
		return mk(tokLt, "<"), nil
	case '>':
		return mk(tokGt, ">"), nil
	case '!':
		return mk(tokBang, "!"), nil
	}
	return token{}, l.errf("unexpected character %q", string(c))
}
