package overlog

import (
	"math"
	"strings"
	"testing"

	"p2/internal/val"
)

func parse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return p
}

func TestMaterialize(t *testing.T) {
	p := parse(t, `
		materialize(neighbor, 120, infinity, keys(2)).
		materialize(sequence, infinity, 1, keys(2)).
		materialize(finger, 180, 160, keys(2,3)).
	`)
	if len(p.Materialize) != 3 {
		t.Fatalf("decls = %d", len(p.Materialize))
	}
	nb := tableDecl(p, "neighbor")
	if nb.Lifetime != 120 || nb.Infinite || nb.Size != 0 || len(nb.Keys) != 1 || nb.Keys[0] != 2 {
		t.Fatalf("neighbor = %+v", nb)
	}
	seq := tableDecl(p, "sequence")
	if !seq.Infinite || seq.Size != 1 {
		t.Fatalf("sequence = %+v", seq)
	}
	fg := tableDecl(p, "finger")
	if fg.Size != 160 || len(fg.Keys) != 2 || fg.Keys[1] != 3 {
		t.Fatalf("finger = %+v", fg)
	}
	if tableDecl(p, "nope") != nil {
		t.Fatal("missing decl should be nil")
	}
}

// tableDecl returns the materialize declaration for name, or nil.
func tableDecl(p *Program, name string) *Materialize {
	for _, m := range p.Materialize {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func TestSimpleRule(t *testing.T) {
	p := parse(t, `R1 refreshEvent(X) :- periodic(X, E, 3).`)
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	r := p.Rules[0]
	if r.ID != "R1" || r.Delete || r.Head.Name != "refreshEvent" {
		t.Fatalf("rule = %+v", r)
	}
	if len(r.Body) != 1 {
		t.Fatalf("body = %v", r.Body)
	}
	atom, ok := r.Body[0].(*Atom)
	if !ok || atom.Name != "periodic" || len(atom.Args) != 3 {
		t.Fatalf("body atom = %v", r.Body[0])
	}
	if lit, ok := atom.Args[2].(*Lit); !ok || lit.Val.AsInt() != 3 {
		t.Fatalf("period arg = %v", atom.Args[2])
	}
}

func TestRuleWithoutID(t *testing.T) {
	p := parse(t, `out(X) :- in(X).`)
	if len(p.Rules) != 1 || p.Rules[0].ID != "" {
		t.Fatalf("rules = %+v", p.Rules)
	}
}

func TestLocationSpecifiers(t *testing.T) {
	p := parse(t, `
		N1 neighbor@Y(Y, X) :- refreshSeq@X(X, S), neighbor@X(X, Y).
	`)
	r := p.Rules[0]
	if r.Head.Loc != "Y" {
		t.Fatalf("head loc = %q", r.Head.Loc)
	}
	b0 := r.Body[0].(*Atom)
	if b0.Loc != "X" {
		t.Fatalf("body loc = %q", b0.Loc)
	}
}

func TestDeleteRule(t *testing.T) {
	p := parse(t, `L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).`)
	if !p.Rules[0].Delete {
		t.Fatal("delete flag missing")
	}
}

func TestAssignmentsAndConditions(t *testing.T) {
	p := parse(t, `
		R2 refreshSeq(X, NewSeq) :- refreshEvent(X), sequence(X, Seq),
			NewSeq := Seq + 1.
		L2 deadNeighbor@X(X, Y) :- neighborProbe@X(X), neighbor@X(X, Y),
			member@X(X, Y, _, YT, _), f_now() - YT > 20.
	`)
	r2 := p.Rules[0]
	asg, ok := r2.Body[2].(*Assign)
	if !ok || asg.Var != "NewSeq" {
		t.Fatalf("assign = %v", r2.Body[2])
	}
	bin, ok := asg.Expr.(*Binary)
	if !ok || bin.Op != "+" {
		t.Fatalf("assign expr = %v", asg.Expr)
	}
	l2 := p.Rules[1]
	cond, ok := l2.Body[3].(*Cond)
	if !ok {
		t.Fatalf("cond = %v", l2.Body[3])
	}
	cmp, ok := cond.Expr.(*Binary)
	if !ok || cmp.Op != ">" {
		t.Fatalf("cond expr = %v", cond.Expr)
	}
	sub := cmp.X.(*Binary)
	if sub.Op != "-" {
		t.Fatalf("lhs = %v", cmp.X)
	}
	if call, ok := sub.X.(*Call); !ok || call.Name != "f_now" {
		t.Fatalf("call = %v", sub.X)
	}
	// Wildcards parse in atom args.
	mem := l2.Body[2].(*Atom)
	if _, ok := mem.Args[2].(*Wildcard); !ok {
		t.Fatalf("wildcard = %v", mem.Args[2])
	}
}

func TestAggregatesInHead(t *testing.T) {
	p := parse(t, `
		L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N),
			lookup@NI(NI,K,R,E), finger@NI(NI,I,B,BI), D := K - B - 1,
			B in (N,K).
		P0 pingEvent@X(X, Y, E, max<R>) :- periodic@X(X, E, 2),
			member@X(X, Y, _, _, _), R := f_rand().
		S1 succCount(NI,count<*>) :- succ(NI,S,SI).
	`)
	agg := p.Rules[0].Head.Args[4].(*AggRef)
	if agg.Fn != "min" || agg.Var != "D" {
		t.Fatalf("agg = %+v", agg)
	}
	agg2 := p.Rules[1].Head.Args[3].(*AggRef)
	if agg2.Fn != "max" || agg2.Var != "R" {
		t.Fatalf("agg2 = %+v", agg2)
	}
	agg3 := p.Rules[2].Head.Args[1].(*AggRef)
	if agg3.Fn != "count" || agg3.Var != "*" {
		t.Fatalf("agg3 = %+v", agg3)
	}
}

func TestAggregateInLocationPosition(t *testing.T) {
	// L3's head sends to the aggregated address: lookup@BI(min<BI>,K,R,E)
	p := parse(t, `L3 lookup@BI(min<BI>,K,R,E) :- node@NI(NI,N), finger@NI(NI,I,B,BI).`)
	agg := p.Rules[0].Head.Args[0].(*AggRef)
	if agg.Fn != "min" || agg.Var != "BI" {
		t.Fatalf("agg = %+v", agg)
	}
	if p.Rules[0].Head.Loc != "BI" {
		t.Fatalf("loc = %q", p.Rules[0].Head.Loc)
	}
}

func TestRangeIntervals(t *testing.T) {
	p := parse(t, `
		L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			bestSucc@NI(NI,S,SI), K in (N,S].
		X1 out(A) :- in(A, B, C), A in [B, C).
		X2 out(A) :- in(A, B, C), A in [B, C].
	`)
	rt := p.Rules[0].Body[3].(*Cond).Expr.(*RangeTest)
	if rt.LoClosed || !rt.HiClosed {
		t.Fatalf("interval (N,S] wrong: %+v", rt)
	}
	rt2 := p.Rules[1].Body[1].(*Cond).Expr.(*RangeTest)
	if !rt2.LoClosed || rt2.HiClosed {
		t.Fatalf("interval [B,C) wrong: %+v", rt2)
	}
	rt3 := p.Rules[2].Body[1].(*Cond).Expr.(*RangeTest)
	if !rt3.LoClosed || !rt3.HiClosed {
		t.Fatalf("interval [B,C] wrong: %+v", rt3)
	}
}

func TestShiftBindsTighterThanPlus(t *testing.T) {
	// K := N + 1 << I must parse as N + (1 << I) — the Chord finger
	// target (see package comment).
	p := parse(t, `F2 lookup@NI(NI,K,NI,E) :- fFix@NI(NI,E,I), node@NI(NI,N), K := N + 1 << I.`)
	asg := p.Rules[0].Body[2].(*Assign)
	add, ok := asg.Expr.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("top op = %v", asg.Expr)
	}
	shift, ok := add.Y.(*Binary)
	if !ok || shift.Op != "<<" {
		t.Fatalf("rhs = %v", add.Y)
	}
	// And the appendix form: K := 1 << I + N parses as (1<<I) + N.
	p2 := parse(t, `F6 x(K) :- y(I, N), K := 1 << I + N.`)
	asg2 := p2.Rules[0].Body[1].(*Assign)
	add2 := asg2.Expr.(*Binary)
	if add2.Op != "+" {
		t.Fatalf("top2 = %v", asg2.Expr)
	}
	if sh, ok := add2.X.(*Binary); !ok || sh.Op != "<<" {
		t.Fatalf("lhs2 = %v", add2.X)
	}
}

func TestBooleanConditions(t *testing.T) {
	p := parse(t, `
		F8 nextFingerFix@NI(NI,0) :- eagerFinger@NI(NI,I,B,BI),
			((I == 159) || (BI == NI)).
		SB8 pred@NI(NI,P,PI) :- notify@NI(NI,P,PI), pred@NI(NI,P1,PI1),
			((PI1 == "-") || (P in (P1,N))).
	`)
	or := p.Rules[0].Body[1].(*Cond).Expr.(*Binary)
	if or.Op != "||" {
		t.Fatalf("or = %v", or)
	}
	or2 := p.Rules[1].Body[2].(*Cond).Expr.(*Binary)
	if or2.Op != "||" {
		t.Fatalf("or2 = %v", or2)
	}
	if _, ok := or2.Y.(*RangeTest); !ok {
		t.Fatalf("nested range test = %v", or2.Y)
	}
}

func TestNegationAndFunctions(t *testing.T) {
	p := parse(t, `
		R4 member@Y(Y, A, S, T, L) :- refreshSeq@X(X, S2), member@X(X, A, S, _, L),
			neighbor@X(X, Y), not member@Y(Y, A, _, _, _), T := f_now@Y().
		F1 fFix@NI(NI,E,I) :- periodic@NI(NI,E,10), f_coinFlip(0.5).
	`)
	neg := p.Rules[0].Body[3].(*Atom)
	if !neg.Neg || neg.Name != "member" || neg.Loc != "Y" {
		t.Fatalf("negated atom = %+v", neg)
	}
	asg := p.Rules[0].Body[4].(*Assign)
	call := asg.Expr.(*Call)
	if call.Name != "f_now" || call.Loc != "Y" {
		t.Fatalf("located call = %+v", call)
	}
	flip := p.Rules[1].Body[1].(*Cond).Expr.(*Call)
	if flip.Name != "f_coinFlip" || len(flip.Args) != 1 {
		t.Fatalf("coinflip = %+v", flip)
	}
}

func TestFacts(t *testing.T) {
	p := parse(t, `
		F0 nextFingerFix@NI(NI, 0).
		SB0 pred@NI(NI,"-","-").
		landmark(X, "n0:1").
	`)
	if len(p.Facts) != 3 {
		t.Fatalf("facts = %d", len(p.Facts))
	}
	if p.Facts[0].ID != "F0" || p.Facts[0].Atom.Name != "nextFingerFix" {
		t.Fatalf("fact0 = %+v", p.Facts[0])
	}
	if lit, ok := p.Facts[1].Atom.Args[1].(*Lit); !ok || lit.Val.AsStr() != "-" {
		t.Fatalf("fact1 arg = %v", p.Facts[1].Atom.Args[1])
	}
	if p.Facts[2].ID != "" {
		t.Fatalf("fact2 should have no ID: %+v", p.Facts[2])
	}
}

func TestDefineAndWatch(t *testing.T) {
	p := parse(t, `
		define(tFix, 10).
		define(addThresh, 0.25).
		define(landmarkAddr, "n0:1").
		define(debug, true).
		define(offset, -5).
		watch(lookup).
	`)
	if len(p.Defines) != 5 {
		t.Fatalf("defines = %d", len(p.Defines))
	}
	if p.Defines[0].Value.AsInt() != 10 {
		t.Fatal("tFix wrong")
	}
	if p.Defines[1].Value.AsFloat() != 0.25 {
		t.Fatal("addThresh wrong")
	}
	if p.Defines[2].Value.AsStr() != "n0:1" {
		t.Fatal("landmarkAddr wrong")
	}
	if !p.Defines[3].Value.AsBool() {
		t.Fatal("debug wrong")
	}
	if p.Defines[4].Value.AsInt() != -5 {
		t.Fatal("offset wrong")
	}
	if len(p.Watches) != 1 || p.Watches[0] != "lookup" {
		t.Fatalf("watches = %v", p.Watches)
	}
}

func TestConstRefs(t *testing.T) {
	p := parse(t, `F1 fFix@NI(NI,E,I) :- periodic@NI(NI,E,tFix), nextFingerFix@NI(NI,I).`)
	atom := p.Rules[0].Body[0].(*Atom)
	if c, ok := atom.Args[2].(*ConstRef); !ok || c.Name != "tFix" {
		t.Fatalf("const ref = %v", atom.Args[2])
	}
}

func TestComments(t *testing.T) {
	p := parse(t, `
		/* block comment
		   spanning lines */
		// line comment
		# hash comment
		materialize(t, 10, 10, keys(1)). // trailing
	`)
	if len(p.Materialize) != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`materialize(t, "10", 10, keys(1)).`,
		`materialize(t, 10, bogus, keys(1)).`,
		`materialize(t, 10, 10, nokeys(1)).`,
		`materialize(t, 10, 10, keys(0)).`, // 1-based
		`rule(X) :- .`,
		`rule(X) :- body(X)`, // missing period
		`rule(X :- body(X).`, // bad paren
		`delete fact(X).`,    // delete on a fact
		`r out(X) :- in(X), K in {A, B}.`,
		`r out(X) :- in(X), K in (A, B!.`,
		`watch().`,
		`define(x).`,
		`define(x, -"s").`,
		`"stray string"`,
		`r out(min<3>) :- in(X).`,
		`/* unterminated`,
		`r out(X) :- in(X), Y := "unterminated.`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("\n\n  bogus !! here.")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 3 {
		t.Fatalf("line = %d, want 3", perr.Line)
	}
	if !strings.Contains(perr.Error(), "line 3") {
		t.Fatalf("message %q", perr.Error())
	}
}

func TestPrintReparseRoundTrip(t *testing.T) {
	src := `
		materialize(member, 120, infinity, keys(2)).
		materialize(sequence, infinity, 1, keys(2)).
		define(tFix, 10).
		watch(lookup).
		F0 nextFingerFix@NI(NI, 0).
		R1 refreshEvent@X(X) :- periodic@X(X, E, 3).
		R2 refreshSeq@X(X, NewS) :- refreshEvent@X(X), sequence@X(X, S), NewS := S + 1.
		L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			bestSucc@NI(NI,S,SI), K in (N,S].
		L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			finger@NI(NI,I,B,BI), D := K - B - 1, B in (N,K).
		L3 delete fFix@NI(NI,E) :- done@NI(NI,E), ((E == "x") || (E == "y")).
		N4 out@X(X, T, F) :- in@X(X), not seen@X(X), T := f_now(), F := f_coinFlip(0.5).
	`
	p1 := parse(t, src)
	printed := p1.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, printed)
	}
	if p2.String() != printed {
		t.Fatalf("round trip unstable:\n--- first\n%s\n--- second\n%s", printed, p2.String())
	}
	if p2.RuleCount() != p1.RuleCount() || len(p2.Facts) != len(p1.Facts) {
		t.Fatal("round trip lost statements")
	}
}

func TestNaradaAppendixParses(t *testing.T) {
	// The mesh-maintenance portion of Appendix A, with the negation
	// rewrite the paper itself applies, parses cleanly.
	src := `
		materialize(member, infinity, infinity, keys(2)).
		materialize(sequence, infinity, 1, keys(2)).
		materialize(neighbor, infinity, infinity, keys(2)).
		E0 neighbor@X(X,Y) :- periodic@X(X,E,0,1), env@X(X, H, Y), H == "neighbor".
		S0 sequence@X(X, Sequence) :- periodic@X(X, E, 0, 1), Sequence := 0.
		R1 refreshEvent@X(X) :- periodic@X(X, E, 3).
		R2 refreshSequence@X(X, NewSequence) :- refreshEvent@X(X),
			sequence@X(X, Sequence), NewSequence := Sequence + 1.
		R3 sequence@X(X, NewSequence) :- refreshSequence@X(X, NewSequence).
		R4 refresh@Y(Y, X, NewSequence, Address, ASequence, ALive) :-
			refreshSequence@X(X, NewSequence), member@X(X, Address, ASequence, Time, ALive),
			neighbor@X(X, Y).
		R5 membersFound@X(X, Address, ASeq, ALive, count<*>) :-
			refresh@X(X, Y, YSeq, Address, ASeq, ALive),
			member@X(X, Address, MySeq, MyTime, MyLive), X != Address.
		R6 member@X(X, Address, ASequence, T, ALive) :-
			membersFound@X(X, Address, ASequence, ALive, C), C == 0, T := f_now().
		R7 member@X(X, Address, ASequence, T, ALive) :-
			membersFound@X(X, Address, ASequence, ALive, C), C > 0, T := f_now(),
			member@X(X, Address, MySequence, MyT, MyLive), MySequence < ASequence.
		R8 member@X(X, Y, YSeq, T, YLive) :- refresh@X(X, Y, YSeq, A, AS, AL),
			T := f_now(), YLive := 1.
		N1 neighbor@X(X, Y) :- refresh@X(X, Y, YS, A, AS, L).
		L1 neighborProbe@X(X) :- periodic@X(X, E, 1).
		L2 deadNeighbor@X(X, Y) :- neighborProbe@X(X), T := f_now(),
			neighbor@X(X, Y), member@X(X, Y, YS, YT, L), T - YT > 20.
		L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
		L4 member@X(X, Neighbor, DeadSequence, T, Live) :- deadNeighbor@X(X, Neighbor),
			member@X(X, Neighbor, S, T1, L), Live := 0, DeadSequence := S + 1, T := f_now().
	`
	p := parse(t, src)
	// Appendix A as printed contains 15 mesh-maintenance rules; the
	// paper's "16 rules" count for §2.3 includes the ping rules P0-P3
	// and utility rules U1-U2 presented inline. Our full shipped
	// narada.olg (internal/overlays) carries all of them.
	if p.RuleCount() != 15 {
		t.Fatalf("Narada mesh rules = %d, want 15", p.RuleCount())
	}
}

func BenchmarkParseChordLookupRules(b *testing.B) {
	src := `
		L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			bestSucc@NI(NI,S,SI), K in (N,S].
		L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			finger@NI(NI,I,B,BI), D := K - B - 1, B in (N,K).
		L3 lookup@BI(min<BI>,K,R,E) :- node@NI(NI,N), bestLookupDist@NI(NI,K,R,E,D),
			finger@NI(NI,I,B,BI), D == K - B - 1, B in (N,K).
	`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParse feeds arbitrary text to the parser, which reads -monitor
// files and Install strings. It must never panic, and whatever parses
// must print (Program.String) as OverLog that parses again to the same
// printed form. The seed corpus in testdata/fuzz/FuzzParse holds the
// shipped Chord, KV and health-monitor specifications.
func FuzzParse(f *testing.F) {
	f.Add(`r out@X(X, K) :- in@X(X, K), K in (1, 2], D := K - 1.`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but its printed form does not: %v\n%s", src, err, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q prints as\n%s\nwhich re-parses and prints as\n%s", src, printed, reprinted)
		}
	})
}

// TestNumberLiteralsHoldTheirValue pins the number handling FuzzParse's
// contract needs: a literal that does not fit is an error, not a
// silently clamped value, and the most negative integer is a literal.
func TestNumberLiteralsHoldTheirValue(t *testing.T) {
	p := parse(t, `define(lo, -9223372036854775808). define(big, 1000000.0).`)
	if v := p.Defines[0].Value; v.Kind() != val.KInt || v.AsInt() != math.MinInt64 {
		t.Fatalf("lo = %v (%v), want the most negative int64", v, v.Kind())
	}
	if got := p.String(); !strings.Contains(got, "define(big, 1000000.0).") {
		t.Fatalf("a float prints as digits and a point, got:\n%s", got)
	}
	for _, src := range []string{
		`define(x, 9223372036854775808).`,
		`materialize(t, 1` + strings.Repeat("0", 400) + `, infinity, keys(1)).`,
		`materialize(t, 10, 99999999999999999999, keys(1)).`,
		`materialize(t, 10, infinity, keys(99999999999999999999)).`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%.60s... parsed; want an out-of-range error", src)
		}
	}
}

// TestNestedRangeTestKeepsItsShape: a range test under another operator
// prints in parentheses, so the printed rule parses to the same tree.
func TestNestedRangeTestKeepsItsShape(t *testing.T) {
	p := parse(t, `r a(X) :- b(X), Y := -(X in (1, 2]).`)
	u, ok := p.Rules[0].Body[1].(*Assign).Expr.(*Unary)
	if !ok {
		t.Fatalf("parsed %v, want a negated range test", p.Rules[0].Body[1])
	}
	again := parse(t, p.String())
	if _, ok := again.Rules[0].Body[1].(*Assign).Expr.(*Unary); !ok || u.String() != "-(X in (1, 2])" {
		t.Fatalf("%s re-parsed as %v", u, again.Rules[0].Body[1])
	}
}
