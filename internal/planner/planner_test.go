package planner

import (
	"strings"
	"testing"

	"p2/internal/dataflow"
	"p2/internal/overlog"
	"p2/internal/table"
	"p2/internal/val"
)

// compile returns src's textual plan, the reference the planner tests
// lay out by hand and check planned strands against.
func compile(t *testing.T, src string) *Plan {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := CompileTextual(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan
}

// compileErr checks that both Compile and CompileTextual reject src
// with an error containing wantSub.
func compileErr(t *testing.T, src string, wantSub string) {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, c := range []struct {
		name    string
		compile func(*overlog.Program, map[string]val.Value) (*Plan, error)
	}{{"Compile", Compile}, {"CompileTextual", CompileTextual}} {
		_, err = c.compile(prog, nil)
		if err == nil {
			t.Fatalf("%s: expected compile error containing %q", c.name, wantSub)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not contain %q", c.name, err.Error(), wantSub)
		}
	}
}

func TestTableSpecs(t *testing.T) {
	p := compile(t, `
		materialize(neighbor, 120, infinity, keys(2)).
		materialize(sequence, infinity, 1, keys(2)).
	`)
	nb := p.Tables["neighbor"]
	if nb.TTL != 120 || nb.MaxSize != 0 || len(nb.Keys) != 1 || nb.Keys[0] != 1 {
		t.Fatalf("neighbor spec = %+v", nb)
	}
	seq := p.Tables["sequence"]
	if seq.TTL != table.Infinity || seq.MaxSize != 1 {
		t.Fatalf("sequence spec = %+v", seq)
	}
	if !p.IsTable("neighbor") || p.IsTable("lookup") {
		t.Fatal("IsTable wrong")
	}
}

func TestDuplicateMaterializeFails(t *testing.T) {
	compileErr(t, `
		materialize(t, 10, 10, keys(1)).
		materialize(t, 20, 20, keys(1)).
	`, "materialized twice")
}

func TestPeriodicTrigger(t *testing.T) {
	p := compile(t, `R1 refreshEvent@X(X, E) :- periodic@X(X, E, 3).`)
	if len(p.Rules) != 1 {
		t.Fatal("rule count")
	}
	r := p.Rules[0]
	if r.Trigger.Kind != TrigPeriodic || r.Trigger.Period != 3 || r.Trigger.Count != 0 {
		t.Fatalf("trigger = %+v", r.Trigger)
	}
	if r.Trigger.Arity != 3 {
		t.Fatalf("arity = %d", r.Trigger.Arity)
	}
	if len(r.HeadProgs) != 2 || r.Materialized {
		t.Fatalf("head = %+v", r)
	}
}

func TestPeriodicOneShotWithCount(t *testing.T) {
	p := compile(t, `S0 seed@X(X) :- periodic@X(X, E, 0, 1).`)
	tr := p.Rules[0].Trigger
	if tr.Period != 0 || tr.Count != 1 || tr.Arity != 4 {
		t.Fatalf("trigger = %+v", tr)
	}
}

func TestPeriodicWithDefine(t *testing.T) {
	p := compile(t, `
		define(tFix, 10).
		F1 fFixEvent@NI(NI, E) :- periodic@NI(NI, E, tFix).
	`)
	if p.Rules[0].Trigger.Period != 10 {
		t.Fatalf("period = %v", p.Rules[0].Trigger.Period)
	}
}

func TestProgrammaticDefineOverrides(t *testing.T) {
	prog := overlog.MustParse(`
		define(tFix, 10).
		F1 e@NI(NI) :- periodic@NI(NI, E, tFix).
	`)
	plan, err := Compile(prog, map[string]val.Value{"tFix": val.Int(99)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rules[0].Trigger.Period != 99 {
		t.Fatalf("override failed: %v", plan.Rules[0].Trigger.Period)
	}
}

func TestStreamTriggerWithJoin(t *testing.T) {
	p := compile(t, `
		materialize(sequence, infinity, 1, keys(2)).
		R2 refreshSeq@X(X, NewSeq) :- refreshEvent@X(X), sequence@X(X, Seq),
			NewSeq := Seq + 1.
	`)
	r := p.Rules[0]
	if r.Trigger.Kind != TrigStream || r.Trigger.Name != "refreshEvent" {
		t.Fatalf("trigger = %+v", r.Trigger)
	}
	if len(r.Ops) != 1 {
		t.Fatalf("ops = %+v", r.Ops)
	}
	join, ok := r.Ops[0].(*OpJoin)
	if !ok || join.Table != "sequence" || join.StreamKey[0] != 0 || join.TableKey[0] != 0 {
		t.Fatalf("join = %+v", r.Ops[0])
	}
	if len(join.Assigns) != 1 {
		t.Fatalf("join = %+v, want the assignment fused in", join)
	}
}

func TestDeltaTrigger(t *testing.T) {
	// succEvent fires on succ table insertions.
	p := compile(t, `
		materialize(succ, 30, 16, keys(2)).
		N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
	`)
	r := p.Rules[0]
	if r.Trigger.Kind != TrigDelta || r.Trigger.Name != "succ" {
		t.Fatalf("trigger = %+v", r.Trigger)
	}
}

func TestTableAggRule(t *testing.T) {
	p := compile(t, `
		materialize(succDist, 30, 100, keys(2)).
		N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D).
	`)
	if len(p.Rules) != 0 || len(p.TableAggs) != 1 {
		t.Fatalf("classification wrong: %d rules, %d aggs", len(p.Rules), len(p.TableAggs))
	}
	ta := p.TableAggs[0]
	if ta.Table != "succDist" || ta.Fn != dataflow.AggMin || ta.AggPos != 2 {
		t.Fatalf("tableagg = %+v", ta)
	}
	if len(ta.GroupPos) != 1 || ta.GroupPos[0] != 0 {
		t.Fatalf("groups = %v", ta.GroupPos)
	}
	if len(ta.HeadProgs) != 2 {
		t.Fatalf("head progs = %d", len(ta.HeadProgs))
	}
}

func TestTableAggCountStar(t *testing.T) {
	p := compile(t, `
		materialize(succ, 30, 16, keys(2)).
		S1 succCount@NI(NI, count<*>) :- succ@NI(NI, S, SI).
	`)
	ta := p.TableAggs[0]
	if ta.Fn != dataflow.AggCount {
		t.Fatalf("fn = %v", ta.Fn)
	}
}

func TestStreamAggExemplar(t *testing.T) {
	p := compile(t, `
		materialize(finger, 180, 160, keys(2)).
		materialize(node, infinity, 1, keys(1)).
		L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N),
			lookup@NI(NI,K,R,E), finger@NI(NI,I,B,BI), D := K - B - 1,
			B in (N,K).
	`)
	r := p.Rules[0]
	if r.Trigger.Name != "lookup" {
		t.Fatalf("event should be the stream: %+v", r.Trigger)
	}
	if r.Agg == nil || r.Agg.Fn != dataflow.AggMin {
		t.Fatalf("agg = %+v", r.Agg)
	}
	// Working layout: lookup(NI,K,R,E)=0..3, node join adds 4..5,
	// finger join adds 6..9, D assigned at 10.
	if r.Agg.AggPos != 10 {
		t.Fatalf("agg pos = %d", r.Agg.AggPos)
	}
	if len(r.HeadProgs) != 5 {
		t.Fatalf("head progs = %d", len(r.HeadProgs))
	}
}

func TestStreamAggCountEventBound(t *testing.T) {
	p := compile(t, `
		materialize(member, 120, infinity, keys(2)).
		R5 membersFound@X(X, A, AS, AL, count<*>) :-
			refresh@X(X, Y, YS, A, AS, AL), member@X(X, A, MS, MT, ML), X != A.
	`)
	r := p.Rules[0]
	if r.Agg == nil || r.Agg.Fn != dataflow.AggCount || r.Agg.AggPos != -1 {
		t.Fatalf("agg = %+v", r.Agg)
	}
}

func TestStreamAggCountNonEventBoundFails(t *testing.T) {
	compileErr(t, `
		materialize(member, 120, infinity, keys(2)).
		BAD out@X(X, M, count<*>) :- evt@X(X), member@X(X, M).
	`, "not bound by the event")
}

func TestNegationCompilesToAntijoin(t *testing.T) {
	p := compile(t, `
		materialize(member, 120, infinity, keys(2)).
		R out@X(X, A) :- evt@X(X, A), not member@X(X, A).
	`)
	join := p.Rules[0].Ops[0].(*OpJoin)
	if !join.Neg {
		t.Fatalf("expected antijoin: %+v", join)
	}
}

func TestLiteralInBodyAtomExtendsKey(t *testing.T) {
	p := compile(t, `
		materialize(env, infinity, infinity, keys(2,3)).
		E0 neighbor@X(X, Y) :- periodic@X(X, E, 0, 1), env@X(X, "neighbor", Y).
	`)
	r := p.Rules[0]
	var sawAssign, sawJoin bool
	for _, op := range r.Ops {
		switch o := op.(type) {
		case *OpAssign:
			sawAssign = true
		case *OpJoin:
			sawJoin = true
			if len(o.StreamKey) != 2 || len(o.TableKey) != 2 {
				t.Fatalf("join keys = %+v", o)
			}
		}
	}
	if !sawAssign || !sawJoin {
		t.Fatalf("ops = %+v", r.Ops)
	}
}

func TestDeleteRule(t *testing.T) {
	p := compile(t, `
		materialize(neighbor, 120, infinity, keys(2)).
		L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
	`)
	if !p.Rules[0].Delete || !p.Rules[0].Materialized {
		t.Fatalf("rule = %+v", p.Rules[0])
	}
}

func TestDeleteOfStreamFails(t *testing.T) {
	compileErr(t, `BAD delete foo@X(X) :- bar@X(X).`, "not a materialized table")
}

func TestMultiStreamBodyFails(t *testing.T) {
	compileErr(t, `BAD out@X(X) :- ping@X(X), pong@X(X).`, "two event streams")
}

func TestMultiNodeBodyFails(t *testing.T) {
	compileErr(t, `
		materialize(member, 120, infinity, keys(2)).
		R4 member@Y(Y, A) :- refreshSeq@X(X, S), member@Y(Y, A).
	`, "multi-node rule body")
}

func TestUnboundVariableFails(t *testing.T) {
	compileErr(t, `BAD out@X(X, Z) :- evt@X(X).`, "unbound variable Z")
}

func TestUndefinedConstantFails(t *testing.T) {
	compileErr(t, `BAD out@X(X, C) :- evt@X(X), C := mystery + 1.`, "undefined constant")
}

func TestArityMismatchFails(t *testing.T) {
	compileErr(t, `
		A out@X(X) :- evt@X(X).
		B out@X(X, Y) :- evt2@X(X, Y).
	`, "arity")
}

func TestHeadLocationMustBeFirstArg(t *testing.T) {
	compileErr(t, `BAD out@Y(X, Y) :- evt@X(X, Y).`, "first head argument")
}

func TestCartesianProductFails(t *testing.T) {
	compileErr(t, `
		materialize(other, 10, 10, keys(1)).
		BAD out@X(X) :- evt@X(X), other@Z(Z).
	`, "multi-node")
}

func TestAggregatedHeadLocation(t *testing.T) {
	// L3: the destination is the aggregate result itself.
	p := compile(t, `
		materialize(finger, 180, 160, keys(2)).
		materialize(node, infinity, 1, keys(1)).
		L3 lookup@BI(min<BI>,K,R,E) :- node@NI(NI,N),
			bestLookupDist@NI(NI,K,R,E,D), finger@NI(NI,I,B,BI),
			D == K - B - 1, B in (N,K).
	`)
	r := p.Rules[0]
	if r.Agg == nil || r.Agg.Fn != dataflow.AggMin {
		t.Fatalf("agg = %+v", r.Agg)
	}
	if r.HeadName != "lookup" || len(r.HeadProgs) != 4 {
		t.Fatalf("head = %+v", r)
	}
}

func TestFactCompilation(t *testing.T) {
	p := compile(t, `
		materialize(landmark, infinity, 1, keys(1)).
		materialize(pred, infinity, 100, keys(1)).
		SB0 pred@NI(NI, "-", "-").
		L0 landmark@NI(NI, "n0:p2").
	`)
	if len(p.Facts) != 2 {
		t.Fatalf("facts = %d", len(p.Facts))
	}
	f := p.Facts[0]
	if !f.Args[0].Local || f.Args[1].Local {
		t.Fatalf("fact args = %+v", f.Args)
	}
	fields := f.Tuple("n5:p2")
	if fields[0].AsStr() != "n5:p2" || fields[1].AsStr() != "-" {
		t.Fatalf("fact tuple = %v", fields)
	}
}

func TestRepeatedBoundVarGeneratesSelect(t *testing.T) {
	// succ@NI(NI, N, NI): the third field must equal the first.
	p := compile(t, `
		materialize(node, infinity, 1, keys(1)).
		C3 succ@NI(NI, N, NI) :- joinEvent@NI(NI, E), node@NI(NI, N).
	`)
	r := p.Rules[0]
	if len(r.HeadProgs) != 3 {
		t.Fatalf("head progs = %d", len(r.HeadProgs))
	}
}

func TestPlanStringDump(t *testing.T) {
	p := compile(t, `
		materialize(succ, 30, 16, keys(2)).
		materialize(succDist, 30, 100, keys(2)).
		N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
		N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D).
		SB1 stabilize@NI(NI, E) :- periodic@NI(NI, E, 15).
		SB0 pred@NI(NI).
	`)
	dump := p.String()
	for _, want := range []string{"table succ", "rule N1", "tableagg N3", "periodic", "fact pred/1"} {
		if !strings.Contains(dump, want) {
			t.Errorf("plan dump missing %q:\n%s", want, dump)
		}
	}
	if p.RuleCount() != 3 {
		t.Fatalf("rule count = %d", p.RuleCount())
	}
}

func TestChordLookupRulesCompile(t *testing.T) {
	// The full lookup rule set from Section 4 compiles end to end.
	p := compile(t, `
		materialize(node, infinity, 1, keys(1)).
		materialize(finger, 180, 160, keys(2)).
		materialize(bestSucc, infinity, 1, keys(1)).
		L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
			bestSucc@NI(NI,S,SI), K in (N,S].
		L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N),
			lookup@NI(NI,K,R,E), finger@NI(NI,I,B,BI), D := K - B - 1, B in (N,K).
		L3 lookup@BI(min<BI>,K,R,E) :- node@NI(NI,N),
			bestLookupDist@NI(NI,K,R,E,D), finger@NI(NI,I,B,BI),
			D == K - B - 1, B in (N,K).
	`)
	if len(p.Rules) != 3 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	// L1 and L2 share the lookup trigger.
	if p.Rules[0].Trigger.Name != "lookup" || p.Rules[1].Trigger.Name != "lookup" {
		t.Fatal("L1/L2 must trigger on lookup")
	}
	if p.Rules[2].Trigger.Name != "bestLookupDist" {
		t.Fatal("L3 must trigger on bestLookupDist")
	}
}

func TestMustCompilePanicsOnBadProgram(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(overlog.MustParse(`BAD out@X(X, Z) :- evt@X(X).`), nil)
}
