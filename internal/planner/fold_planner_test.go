package planner

import (
	"slices"
	"strings"
	"testing"

	"p2/internal/dataflow"
)

// foldOp returns r's folded join, or nil.
func foldOp(r *Rule) *OpJoin {
	for _, op := range r.Ops {
		if j, ok := op.(*OpJoin); ok && j.Fold != nil {
			return j
		}
	}
	return nil
}

func TestFoldChordLookupRules(t *testing.T) {
	p := compile(t, chordLookupSrc)
	opt := Optimize(p, nil, OptimizerConfig{})
	byID := make(map[string]*Rule)
	for _, r := range opt.Rules {
		byID[r.ID] = r
	}

	// L1 has no aggregate: never folded.
	if foldOp(byID["L1"]) != nil {
		t.Fatal("L1 has no aggregate and must not fold")
	}
	// L2's min<D> comes from a trailing assignment: the fold absorbs the
	// finger join, the range filter, and the assignment as its input.
	f2 := foldOp(byID["L2"])
	if f2 == nil {
		t.Fatalf("L2 should fold: %v", byID["L2"].Ops)
	}
	if f2.Table != "finger" || f2.Fold.Fn != dataflow.AggMin || f2.Fold.Input == nil {
		t.Fatalf("L2 fold shape wrong: %+v", f2)
	}
	if byID["L2"].Agg != nil {
		t.Fatal("folded rule must not also carry an AggStream spec")
	}
	// L3's min<BI> is a raw finger field: the fold reads it in place.
	f3 := foldOp(byID["L3"])
	if f3 == nil {
		t.Fatalf("L3 should fold: %v", byID["L3"].Ops)
	}
	if f3.Table != "finger" || len(f3.Filters) != 2 || f3.Fold.Input == nil {
		t.Fatalf("L3 fold shape wrong: %+v", f3)
	}
}

func TestFoldDeclinesNonEventBoundExemplar(t *testing.T) {
	// The head projects S from the small join, so the rule is
	// pushdown-only — and pushdown-only rules never fold.
	p := compile(t, `
		materialize(small, 30, infinity, keys(2)).
		R1 out@X(X, S, min<B>) :- evt@X(X, A), small@X(X, S), B := S + A.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	if foldOp(opt.Rules[0]) != nil {
		t.Fatal("non-event-bound exemplar head must not fold")
	}
}

func TestFoldDeclinesSumAvg(t *testing.T) {
	p := compile(t, `
		materialize(small, 30, infinity, keys(2)).
		R1 out@X(X, sum<S>) :- evt@X(X, A), small@X(X, S).
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	r := opt.Rules[0]
	if foldOp(r) != nil {
		t.Fatal("sum aggregates are accumulation-order sensitive and must not fold")
	}
	if r.Agg == nil || r.Agg.Fn != dataflow.AggSum {
		t.Fatalf("sum rule lost its AggStream: %+v", r)
	}
}

func TestFoldCountOverJoin(t *testing.T) {
	p := compile(t, `
		materialize(small, 30, infinity, keys(2)).
		R1 out@X(X, count<*>) :- evt@X(X, A), small@X(X, S), S > A.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	f := foldOp(opt.Rules[0])
	if f == nil {
		t.Fatalf("count<*> over a join should fold: %v", opt.Rules[0].Ops)
	}
	if f.Fold.Fn != dataflow.AggCount || f.Fold.Input != nil || len(f.Filters) != 1 {
		t.Fatalf("count fold shape wrong: %+v", f)
	}
}

// TestFoldedPlanStringMentionsFold pins the inspector rendering so
// operators can see fusion in olgc -explain output.
func TestFoldedPlanStringMentionsFold(t *testing.T) {
	p := compile(t, chordLookupSrc)
	opt := Optimize(p, nil, OptimizerConfig{})
	s := opt.String()
	if !strings.Contains(s, "foldjoin finger") {
		t.Fatalf("plan dump lacks foldjoin: %s", s)
	}
}

// TestFoldRecordsDistinctColumns pins which finger columns the lookup
// folds may skip on: L2's programs read B, L3's read B and BI
// (finger(NI, I, B, BI): columns 2 and 3). A clock read in a fused
// filter makes equal rows unequal, and count needs every row: neither
// records any column.
func TestFoldRecordsDistinctColumns(t *testing.T) {
	opt := Optimize(compile(t, chordLookupSrc), nil, OptimizerConfig{})
	for _, r := range opt.Rules {
		want := map[string][]int{"L2": {2}, "L3": {2, 3}}[r.ID]
		if want == nil {
			continue
		}
		if f := foldOp(r); f == nil || !slices.Equal(f.Fold.Distinct, want) {
			t.Fatalf("%s fold = %+v, want distinct columns %v", r.ID, f, want)
		}
		if !strings.Contains(r.OrderString(), " distinct[2") {
			t.Fatalf("%s sysPlan order %q lacks its distinct columns", r.ID, r.OrderString())
		}
	}
	if s := opt.String(); !strings.Contains(s, "min distinct[2]") || !strings.Contains(s, "min distinct[2 3]") {
		t.Fatalf("plan dump lacks the folds' distinct columns: %s", s)
	}

	for name, src := range map[string]string{
		"f_now filter": `R1 out@X(X, min<S>) :- evt@X(X, A), small@X(X, S, T), f_now() - T < A.`,
		"count":        `R1 out@X(X, count<*>) :- evt@X(X, A), small@X(X, S, T), S > A.`,
	} {
		p := compile(t, "materialize(small, 30, infinity, keys(2)).\n"+src)
		r := Optimize(p, nil, OptimizerConfig{}).Rules[0]
		f := foldOp(r)
		if f == nil {
			t.Fatalf("%s: rule should still fold: %v", name, r.Ops)
		}
		if f.Fold.Distinct != nil || strings.Contains(r.OrderString(), "distinct") {
			t.Fatalf("%s: fold records distinct columns %v (order %q), want none", name, f.Fold.Distinct, r.OrderString())
		}
	}
}
