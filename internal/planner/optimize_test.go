package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"p2/internal/overlog"
	"p2/internal/pel"
)

// opCounts summarizes a rule's compiled ops for multiset comparison:
// joins and antijoins per table, and counts of the remaining steps. A
// join counts the selections and assignments fused into it, and a fold
// (when the aggregate input came from a trailing assignment) that
// assignment, so a plan has the same multiset however it is fused.
func opCounts(r *Rule) map[string]int {
	out := make(map[string]int)
	for _, op := range r.Ops {
		switch o := op.(type) {
		case *OpJoin:
			k := "join:" + o.Table
			if o.Neg {
				k = "antijoin:" + o.Table
			}
			out[k]++
			out["select"] += len(o.Filters)
			out["assign"] += len(o.Assigns)
			if o.Fold != nil && o.Fold.Input != nil && !isFieldRead(o.Fold.Input) {
				out["assign"]++
			}
		case *OpSelect:
			out["select"]++
		case *OpAssign:
			out["assign"] += len(o.Progs)
		}
	}
	return out
}

// isFieldRead reports whether p is the planner-synthesized single-field
// read used when the aggregate input already exists in the working
// tuple (as opposed to a folded trailing assignment).
func isFieldRead(p *pel.Program) bool {
	return strings.HasPrefix(p.String(), "$") && !strings.ContainsAny(p.String(), " ")
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// checkEquivalent asserts the structural invariants every optimized
// rule must satisfy relative to its textual original: same identity,
// head, and trigger; Order a valid permutation of the body terms; and
// the same multiset of compiled operators.
func checkEquivalent(t *testing.T, orig, opt *Rule) {
	t.Helper()
	if opt.ID != orig.ID || opt.HeadName != orig.HeadName || opt.Delete != orig.Delete {
		t.Fatalf("rule identity changed: %+v vs %+v", orig, opt)
	}
	if opt.Trigger.Kind != orig.Trigger.Kind || opt.Trigger.Name != orig.Trigger.Name {
		t.Fatalf("%s: trigger changed: %+v vs %+v", orig.ID, orig.Trigger, opt.Trigger)
	}
	if opt.Order != nil {
		seen := make(map[int]bool)
		for _, i := range opt.Order {
			if i < 0 || i >= len(opt.Order) || seen[i] {
				t.Fatalf("%s: order %v is not a permutation", orig.ID, opt.Order)
			}
			seen[i] = true
		}
	}
	if !sameCounts(opCounts(orig), opCounts(opt)) {
		t.Fatalf("%s: op multiset changed:\n  orig %v\n  opt  %v",
			orig.ID, opCounts(orig), opCounts(opt))
	}
	if len(opt.HeadProgs) != len(orig.HeadProgs) {
		t.Fatalf("%s: head arity changed", orig.ID)
	}
}

const chordLookupSrc = `
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
`

func TestOptimizePreservesRuleStructure(t *testing.T) {
	p := compile(t, chordLookupSrc)
	opt := Optimize(p, nil, OptimizerConfig{})
	if len(opt.Rules) != len(p.Rules) {
		t.Fatalf("rule count changed: %d vs %d", len(opt.Rules), len(p.Rules))
	}
	optimized := 0
	for i, orig := range p.Rules {
		checkEquivalent(t, orig, opt.Rules[i])
		if opt.Rules[i].Order != nil {
			optimized++
			if opt.Rules[i] == orig {
				t.Fatalf("%s: optimized rule must be recompiled, not the input rule", orig.ID)
			}
			if opt.Rules[i].CostEst <= 0 {
				t.Fatalf("%s: cost estimate = %v", orig.ID, opt.Rules[i].CostEst)
			}
		}
	}
	if optimized == 0 {
		t.Fatal("no rule was optimized")
	}
	// The input plan is untouched.
	for _, orig := range p.Rules {
		if orig.Order != nil {
			t.Fatal("Optimize mutated its input plan")
		}
	}
}

// TestCompilePlansEveryRule: Compile ends with the catalog planning
// pass, so its plan is the textual plan planned, and planning it again
// changes nothing.
func TestCompilePlansEveryRule(t *testing.T) {
	planned, err := Compile(overlog.MustParse(chordLookupSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Optimize(compile(t, chordLookupSrc), nil, OptimizerConfig{}).String()
	if got := planned.String(); got != want {
		t.Fatalf("Compile's plan:\n%s\nwant the planned textual plan:\n%s", got, want)
	}
	if got := Optimize(planned, nil, OptimizerConfig{}).String(); got != want {
		t.Fatalf("re-planning a compiled plan changed it:\n%s\nwant:\n%s", got, want)
	}
	for _, r := range planned.Rules {
		if r.Order == nil || r.OrderString() == "-" {
			t.Fatalf("%s left unplanned", r.ID)
		}
	}
}

// TestOptimizeRandomRulesProperty is the plan-equivalence property
// test: randomly generated (compilable) rule bodies, planned against
// randomly drawn declared table sizes, must always yield a valid
// permutation of the same operator multiset with identity and trigger
// intact.
func TestOptimizeRandomRulesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tables := []string{"ta", "tb", "tc"}
	for trial := 0; trial < 200; trial++ {
		var b strings.Builder
		fmt.Fprintf(&b, `
			materialize(ta, infinity, %d, keys(1,2)).
			materialize(tb, 30, %d, keys(2)).
			materialize(tc, infinity, %d, keys(1)).
		`, 1+rng.Intn(64), 1+rng.Intn(64), 1+rng.Intn(64))
		// Body: the event, then 1-3 table atoms, plus optional
		// conds/assigns in random textual positions.
		var terms []string
		vars := []string{"A"}
		for i, tab := range tables {
			if rng.Intn(2) == 0 && i > 0 {
				continue
			}
			v := fmt.Sprintf("V%d", i)
			neg := ""
			if rng.Intn(4) == 0 {
				// Negated atoms may only use bound variables.
				neg = "not "
				terms = append(terms, fmt.Sprintf("%s%s@X(X, A)", neg, tab))
				continue
			}
			terms = append(terms, fmt.Sprintf("%s@X(X, %s)", tab, v))
			vars = append(vars, v)
		}
		// Conds/assigns reference only the event variable so the shuffle
		// can never move them before their binding (the compiler checks
		// bindings left-to-right).
		if rng.Intn(2) == 0 {
			terms = append(terms, "A > 0")
		}
		if rng.Intn(2) == 0 {
			terms = append(terms, "W := A + 1")
			vars = append(vars, "W")
		}
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		head := vars[rng.Intn(len(vars))]
		fmt.Fprintf(&b, "R1 out@X(X, %s) :- evt@X(X, A), %s.\n",
			head, strings.Join(terms, ", "))

		p := compile(t, b.String())
		opt := Optimize(p, nil, OptimizerConfig{})
		for i, orig := range p.Rules {
			checkEquivalent(t, orig, opt.Rules[i])
		}
	}
}

func TestPushdownMovesFilterBeforeJoin(t *testing.T) {
	p := compile(t, `
		materialize(m, 30, 100, keys(2)).
		R1 out@X(X, Y) :- evt@X(X, A), m@X(X, Y), A > 5.
	`)
	// Textually the filter sits after the join; its only variable is
	// bound by the event, so the planner floats it ahead of the probe.
	if _, ok := p.Rules[0].Ops[0].(*OpJoin); !ok {
		t.Fatalf("textual plan: first op = %T, want the join", p.Rules[0].Ops[0])
	}
	r := Optimize(p, nil, OptimizerConfig{}).Rules[0]
	if r.Order == nil {
		t.Fatal("rule not planned")
	}
	if _, ok := r.Ops[0].(*OpSelect); !ok {
		t.Fatalf("first op = %T, want pushed-down select", r.Ops[0])
	}
}

// The tests below steer the greedy planner through declared sizes: a
// probe keyed on the location alone returns every row of the node, so
// small's declared bound of 2 is its fan-out, against the catalog's 32
// for an unbounded table.

func TestGreedyPicksSmallerFanoutFirst(t *testing.T) {
	const rule = "R1 out@X(X, B, S) :- evt@X(X), big@X(X, B), small@X(X, S)."
	p := compile(t, `
		materialize(big, 30, infinity, keys(2)).
		materialize(small, 30, 2, keys(2)).
	`+rule)
	opt := Optimize(p, nil, OptimizerConfig{})
	r := opt.Rules[0]
	j, ok := r.Ops[0].(*OpJoin)
	if !ok || j.Table != "small" {
		t.Fatalf("first op = %+v, want join on small", r.Ops[0])
	}
	if r.OrderString() != "1,0" {
		t.Fatalf("order = %q, want 1,0", r.OrderString())
	}
	// Swapped declarations flip the choice.
	p = compile(t, `
		materialize(big, 30, 2, keys(2)).
		materialize(small, 30, infinity, keys(2)).
	`+rule)
	opt = Optimize(p, nil, OptimizerConfig{})
	if j := opt.Rules[0].Ops[0].(*OpJoin); j.Table != "big" {
		t.Fatalf("swapped sizes: first join on %s, want big", j.Table)
	}
}

func TestFrozenRandomRuleUntouched(t *testing.T) {
	p := compile(t, `
		materialize(m, 30, 100, keys(2)).
		R1 out@X(X, Y, C) :- evt@X(X), m@X(X, Y), C := f_rand(), Y > 2.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	if got, want := opt.String(), p.String(); got != want {
		t.Fatalf("rule drawing randomness must lower textually:\n%s\nwant:\n%s", got, want)
	}
	if opt.Rules[0].Order != nil {
		t.Fatal("frozen rule must carry no plan order")
	}
}

func TestEventBoundAggregateReorders(t *testing.T) {
	// min<B> whose other head fields are all event-bound: the aggregate
	// value is a pure function of the binding multiset and ties project
	// identically, so the join order may move — this is the Chord
	// maxSuccDist/bestLookupDist shape, where it matters most.
	p := compile(t, `
		materialize(big, 30, infinity, keys(2)).
		materialize(small, 30, 2, keys(2)).
		R1 out@X(X, min<B>) :- evt@X(X, A), big@X(X, B), small@X(X, S), A > 0.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	r := opt.Rules[0]
	if r.Order == nil {
		t.Fatal("aggregate rule should be re-planned")
	}
	if _, ok := r.Ops[0].(*OpSelect); !ok {
		t.Fatalf("first op = %T, want pushed-down select", r.Ops[0])
	}
	j, ok := r.Ops[1].(*OpJoin)
	if !ok || j.Table != "small" {
		t.Fatalf("event-bound min<> should reorder small first: %+v", r.Ops)
	}
}

func TestExemplarAggregateWithBodyHeadVarIsPushdownOnly(t *testing.T) {
	// Here the head also projects S from the small join: a tie on B
	// between rows with different S picks whichever was visited first,
	// so atoms must stay textual — but the event-bound filter still
	// floats up.
	p := compile(t, `
		materialize(big, 30, infinity, keys(2)).
		materialize(small, 30, 2, keys(2)).
		R1 out@X(X, S, min<B>) :- evt@X(X, A), big@X(X, B), small@X(X, S), A > 0.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	r := opt.Rules[0]
	if r.Order == nil {
		t.Fatal("pushdown-only rule should still be re-planned")
	}
	if _, ok := r.Ops[0].(*OpSelect); !ok {
		t.Fatalf("first op = %T, want pushed-down select", r.Ops[0])
	}
	j, ok := r.Ops[1].(*OpJoin)
	if !ok || j.Table != "big" {
		t.Fatalf("atom order changed under an exemplar aggregate: %+v", r.Ops)
	}
}

func TestSumAggregateIsPushdownOnly(t *testing.T) {
	// sum<> accumulates floats in visit order, so even an event-bound
	// head pins the atom order.
	p := compile(t, `
		materialize(big, 30, infinity, keys(2)).
		materialize(small, 30, 2, keys(2)).
		R1 out@X(X, sum<B>) :- evt@X(X), big@X(X, B), small@X(X, S).
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	j, ok := opt.Rules[0].Ops[0].(*OpJoin)
	if !ok || j.Table != "big" {
		t.Fatalf("atom order changed under sum<>: %+v", opt.Rules[0].Ops)
	}
}

func TestDeleteHeadReordersUnlessSelfReading(t *testing.T) {
	// Deletes commute with each other, so a delete rule reorders like
	// any other — unless its body reads the very table it deletes from,
	// where removals land mid-probe-walk (the Chord S4 shape).
	p := compile(t, `
		materialize(victim, 30, infinity, keys(2)).
		materialize(big, 30, infinity, keys(2)).
		materialize(small, 30, 2, keys(2)).
		R1 delete victim@X(X, B) :- evt@X(X), big@X(X, B), small@X(X, S), B == S.
		R2 delete victim@X(X, S) :- evt@X(X), victim@X(X, B), small@X(X, S), B == S.
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	if j := opt.Rules[0].Ops[0].(*OpJoin); j.Table != "small" {
		t.Fatalf("non-self-reading delete should reorder small first: %+v", opt.Rules[0].Ops)
	}
	if j := opt.Rules[1].Ops[0].(*OpJoin); j.Table != "victim" {
		t.Fatalf("self-reading delete must keep atom order: %+v", opt.Rules[1].Ops)
	}
}

func TestNegatedRuleKeepsAtomOrder(t *testing.T) {
	p := compile(t, `
		materialize(big, 30, infinity, keys(2)).
		materialize(seen, 30, 2, keys(1,2)).
		R1 out@X(X, B) :- evt@X(X), big@X(X, B), not seen@X(X, B).
	`)
	opt := Optimize(p, nil, OptimizerConfig{})
	r := opt.Rules[0]
	j, ok := r.Ops[0].(*OpJoin)
	if !ok || j.Table != "big" || j.Neg {
		t.Fatalf("negation must pin atom order; ops = %+v", r.Ops)
	}
}

func TestCatalogStatsHeuristics(t *testing.T) {
	p := compile(t, `
		materialize(one, infinity, 1, keys(1)).
		materialize(capped, 30, 16, keys(2)).
		materialize(huge, 30, 100000, keys(2)).
		materialize(open, 30, infinity, keys(2)).
	`)
	cs := NewCatalogStats(p)
	if cs.Cardinality("one") != 1 || cs.Cardinality("capped") != 16 {
		t.Fatalf("bounded tables: %v %v", cs.Cardinality("one"), cs.Cardinality("capped"))
	}
	if cs.Cardinality("huge") != catalogMaxSizeCap {
		t.Fatalf("huge = %v, want cap %d", cs.Cardinality("huge"), catalogMaxSizeCap)
	}
	if cs.Cardinality("open") != catalogDefaultRows {
		t.Fatalf("open = %v", cs.Cardinality("open"))
	}
	if cs.Cardinality("someStream") != 1 {
		t.Fatalf("stream = %v", cs.Cardinality("someStream"))
	}
	if cs.Cardinality("sysTable") != catalogSystemRows {
		t.Fatalf("system = %v", cs.Cardinality("sysTable"))
	}
	// Key covering the PK → one row per probe.
	if got := cs.Fanout("capped", []int{0, 1}); got != 1 {
		t.Fatalf("pk fanout = %v", got)
	}
	// Location-only key: every row of the node.
	if got := cs.Fanout("capped", []int{0}); got != 16 {
		t.Fatalf("loc fanout = %v", got)
	}
	// Anything else: mildly skewed, but never more rows than there are.
	if got := cs.Fanout("open", []int{2}); got != defaultKeySkew {
		t.Fatalf("skew fanout = %v", got)
	}
	if got := cs.Fanout("one", []int{1}); got != 1 {
		t.Fatalf("skew fanout of a one-row table = %v", got)
	}
	// An event stream holds one tuple.
	if got := cs.Fanout("someStream", []int{0}); got != 1 {
		t.Fatalf("stream fanout = %v", got)
	}
}
