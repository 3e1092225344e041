package planner

import "testing"

// diagnosticCases is exhaustive compile-error coverage: every
// diagnostic the planner can produce, fired by a minimal program, with
// the text of its actionable message.
var diagnosticCases = []struct {
	name, src, want string
}{
	{"delete of stream", `r delete foo@X(X) :- bar@X(X).`, "not a materialized table"},
	{"two streams", `r out@X(X) :- a@X(X), b@X(X).`, "two event streams"},
	{"stream after event", `
			materialize(t, 10, 10, keys(1)).
			r out@X(X) :- a@X(X), t@X(X), b@X(X).`, "two event streams"},
	{"no trigger", `r out@X(X) :- X := 1 + 2.`, "no triggering predicate"},
	{"multi-node", `r out@X(X) :- a@X(X), b@Y(Y).`, "multi-node rule body"},
	{"mislocated call", `r out@X(X, T) :- a@X(X), T := f_now@Z().`, "located off the rule body"},
	{"remote delete", `
			materialize(t, 10, 10, keys(1)).
			r delete t@Y(Y) :- a@X(X), t@X(Y).`, "local to the rule body"},
	{"unbound head var", `r out@X(X, Q) :- a@X(X).`, "unbound variable Q"},
	{"unbound cond var", `r out@X(X) :- a@X(X), Q > 3.`, "unbound variable Q"},
	{"double assign", `r out@X(X) :- a@X(X), V := 1, V := 2.`, "assigned twice"},
	{"undefined const in expr", `r out@X(X, C) :- a@X(X), C := boop.`, "undefined constant"},
	{"undefined const in atom", `
			materialize(t, 10, 10, keys(1)).
			r out@X(X) :- a@X(X), t@X(X, boop).`, "undefined constant"},
	{"undefined const in event", `r out@X(X) :- a@X(X, boop).`, "undefined constant"},
	{"periodic missing period", `r out@X(X) :- periodic@X(X, E).`, "periodic needs"},
	{"periodic var period", `r out@X(X) :- periodic@X(X, E, P).`, "must be a constant"},
	{"periodic var count", `r out@X(X) :- periodic@X(X, E, 1, C2).`, "must be a constant"},
	// range is an ordinary relation name, so the naive finger-fix body
	// that once used it as a generator names two event streams.
	{"range is a stream", `F1 fFix@NI(NI, E, I) :- periodic@NI(NI, E, 10), range(I, 0, 159).`, "two event streams"},
	{"cartesian", `
			materialize(t, 10, 10, keys(1)).
			r out@X(X) :- a@X(X), t@X(Q).`, "shares no variables"},
	{"neg no shared", `
			materialize(t, 10, 10, keys(1)).
			r out@X(X) :- a@X(X), not t@X(Q).`, "shares no variables"},
	{"neg repeated fresh", `
			materialize(t, 10, 10, keys(1,2)).
			r out@X(X) :- a@X(X), not t@X(X, Q, Q).`, "repeated fresh variable"},
	{"multi agg", `r out@X(X, min<A>, max<A>) :- a@X(X, A).`, "multiple aggregates"},
	{"agg unbound", `r out@X(X, min<Q>) :- a@X(X).`, "is unbound"},
	{"min star", `r out@X(X, min<*>) :- a@X(X, A).`, "only valid for count"},
	{"count non-event field", `
			materialize(t, 10, 10, keys(1)).
			r out@X(X, M, count<*>) :- a@X(X), t@X(X, M).`, "not bound by the event"},
	{"head loc not first", `r out@Y(X, Y) :- a@X(X, Y).`, "first head argument"},
	{"located empty head", `r out@Y() :- a@Y(Y).`, "no arguments"},
	{"arity conflict", `
			a1 out@X(X) :- e1@X(X).
			a2 out@X(X, Y) :- e2@X(X, Y).`, "arity"},
	{"tableagg delete", `
			materialize(t, 10, 10, keys(1)).
			materialize(best, 10, 10, keys(1)).
			r delete best@X(X, min<C>) :- t@X(X, C).`, "cannot be deletions"},
	{"tableagg literal arg", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, min<C>) :- t@X(X, C, 9).`, "must be variables"},
	{"tableagg head expr", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, min<C>, "x") :- t@X(X, C).`, "must be variables"},
	{"tableagg unbound group", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, Q, min<C>) :- t@X(X, C).`, "not bound"},
	{"tableagg multi agg", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, min<C>, max<C>) :- t@X(X, C).`, "multiple aggregates"},
	// A non-variable head field before the second aggregate: the head's
	// aggregates are counted before its fields are checked.
	{"tableagg field before second agg", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, "x", min<C>, max<C>) :- t@X(X, C).`, "multiple aggregates"},
	{"tableagg min star", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, min<*>) :- t@X(X, C).`, "only valid for count"},
	{"tableagg agg unbound", `
			materialize(t, 10, 10, keys(1)).
			r best@X(X, min<Q>) :- t@X(X, C).`, "not bound"},
	{"wildcard in head", `r out@X(X, _) :- a@X(X).`, ""},
}

func TestCompileDiagnostics(t *testing.T) {
	for _, c := range diagnosticCases {
		t.Run(c.name, func(t *testing.T) {
			compileErr(t, c.src, c.want)
		})
	}
}

func TestLiteralArgsInEventGenerateSelections(t *testing.T) {
	// A literal in the event atom filters the stream.
	p := compile(t, `r out@X(X) :- evt@X(X, "go", 7).`)
	selects := 0
	for _, op := range p.Rules[0].Ops {
		if _, ok := op.(*OpSelect); ok {
			selects++
		}
	}
	if selects != 2 {
		t.Fatalf("selections for literal event args = %d, want 2", selects)
	}
}

func TestRepeatedVarInEventAtom(t *testing.T) {
	// evt(X, X) requires both fields equal.
	p := compile(t, `r out@X(X) :- evt@X(X, X).`)
	if len(p.Rules[0].Ops) != 1 {
		t.Fatalf("ops = %+v", p.Rules[0].Ops)
	}
	if _, ok := p.Rules[0].Ops[0].(*OpSelect); !ok {
		t.Fatal("expected equality selection")
	}
}

func TestRepeatedFreshVarInBodyAtom(t *testing.T) {
	// t(X, Q, Q): fresh Q repeated inside the joined atom becomes a
	// post-join equality, fused into the join as its filter.
	p := compile(t, `
		materialize(t, 10, 10, keys(1)).
		r out@X(X, Q) :- evt@X(X), t@X(X, Q, Q).
	`)
	ops := p.Rules[0].Ops
	if len(ops) != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	if j, ok := ops[0].(*OpJoin); !ok || len(j.Filters) != 1 {
		t.Fatalf("join = %+v, want one fused equality filter", ops[0])
	}
}

func TestNegatedAtomWithConstant(t *testing.T) {
	p := compile(t, `
		materialize(t, 10, 10, keys(1,2)).
		r out@X(X) :- evt@X(X), not t@X(X, "blocked").
	`)
	found := false
	for _, op := range p.Rules[0].Ops {
		if j, ok := op.(*OpJoin); ok && j.Neg {
			found = true
			if len(j.StreamKey) != 2 {
				t.Fatalf("antijoin keys = %+v", j)
			}
		}
	}
	if !found {
		t.Fatal("no antijoin")
	}
}

func TestFactErrors(t *testing.T) {
	compileErr(t, `f fact@X(X, 1 + 2).`, "must be a constant or variable")
}

func TestCallCompilation(t *testing.T) {
	p := compile(t, `
		r out@X(X, A, B, C, D, E2) :- evt@X(X, V),
			A := f_sha1(X), B := f_toID(V), C := f_toStr(V),
			D := f_localAddr(), E2 := f_coinFlip(0.5).
	`)
	if len(p.Rules) != 1 {
		t.Fatal("compile failed")
	}
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_mystery().`, "unknown function")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_now(3).`, "expects 0 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_sha1().`, "expects 1 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_coinFlip().`, "expects 1 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_rand(1).`, "expects 0 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_localAddr(1).`, "expects 0 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_toID().`, "expects 1 argument")
	compileErr(t, `r out@X(X, A) :- evt@X(X), A := f_toStr().`, "expects 1 argument")
}

func TestUnaryOperators(t *testing.T) {
	p := compile(t, `r out@X(X, A, B) :- evt@X(X, V), A := -V, B := !V.`)
	if a, ok := p.Rules[0].Ops[0].(*OpAssign); len(p.Rules[0].Ops) != 1 || !ok || len(a.Progs) != 2 {
		t.Fatalf("ops = %v, want one run of two assignments", p.Rules[0].Ops)
	}
}

func TestStreamAggSumAvg(t *testing.T) {
	for _, fn := range []string{"sum", "avg"} {
		p := compile(t, `
			materialize(t, 10, 10, keys(1)).
			r out@X(X, `+fn+`<V>) :- evt@X(X), t@X(X, V).
		`)
		if p.Rules[0].Agg == nil {
			t.Fatalf("%s: no agg", fn)
		}
	}
}

func TestTableAggWildcardArg(t *testing.T) {
	p := compile(t, `
		materialize(t, 10, 10, keys(1)).
		r cnt@X(X, count<*>) :- t@X(X, _, _).
	`)
	if len(p.TableAggs) != 1 {
		t.Fatal("wildcards in table-agg body should be allowed")
	}
}
