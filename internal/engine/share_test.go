package engine

import (
	"slices"
	"testing"

	"p2/internal/tuple"
	"p2/internal/val"
)

// shareSrc folds a finger scan (a FoldJoin with a row cache) and
// counts lookups (a plain strand).
const shareSrc = `
	materialize(finger, infinity, infinity, keys(2)).
	L1 best@NI(NI, K, min<D>) :- lookup@NI(NI, K), finger@NI(NI, I, B), B < K, D := K - B - 1.
	L2 seen@NI(NI, K) :- lookup@NI(NI, K).
`

// TestNodesShareTheGraphNotTheState holds the split between a plan and
// the nodes running it: the nodes push through the same elements, an
// Install on one leaves the other as it was, and what an element
// remembers between pushes is each node's own.
func TestNodesShareTheGraphNotTheState(t *testing.T) {
	r := newRig(t, shareSrc, "a", "b")
	a, b := r.nodes["a"], r.nodes["b"]
	for i, ra := range a.plan.Rules {
		if ra.Entry == nil || ra.Entry != b.plan.Rules[i].Entry {
			t.Fatalf("rule %s: nodes a and b enter different elements", ra.ID)
		}
	}

	// Both nodes hold the same number of finger rows under the same key,
	// so their tables stand at the same version: only the rows differ. A
	// row cache shared between them would answer b's scan with a's rows.
	for i, bs := range [][]int64{{10, 20, 30}, {15, 25, 35}} {
		n := []*Node{a, b}[i]
		for j, v := range bs {
			n.InjectTuple(tuple.New("finger", val.Str("k"), val.Int(int64(j)), val.Int(v)))
		}
	}
	r.loop.Run(1)
	if va, vb := a.Table("finger").Version(), b.Table("finger").Version(); va != vb {
		t.Fatalf("finger versions %d and %d: the scans below would not collide", va, vb)
	}
	// The head's location is the key, not the node, so each best row
	// leaves its node: that is where it is heard.
	bestA, bestB := r.watch("a", "best", DirSent), r.watch("b", "best", DirSent)
	for k := int64(100); k < 104; k++ {
		a.InjectTuple(tuple.New("lookup", val.Str("k"), val.Int(k)))
		r.loop.Run(r.loop.Now() + 0.001)
		b.InjectTuple(tuple.New("lookup", val.Str("k"), val.Int(k)))
		r.loop.Run(r.loop.Now() + 0.001)
	}
	for _, c := range []struct {
		node string
		got  []*tuple.Tuple
		top  int64 // the largest finger below every key
	}{{"a", *bestA, 30}, {"b", *bestB, 35}} {
		if len(c.got) != 4 {
			t.Fatalf("node %s derived %d best rows, want 4", c.node, len(c.got))
		}
		for i, row := range c.got {
			if want := 100 + int64(i) - c.top - 1; row.Field(2).AsInt() != want {
				t.Errorf("node %s lookup %d: best %v, want %d: the fold read another node's rows", c.node, 100+i, row, want)
			}
		}
	}

	// An Install on a extends a's plan alone. b keeps its plan, its
	// strands and its counters; a's copy of the base rules still enters
	// the elements b runs.
	bPlan, bStats := b.plan, b.RuleStats()
	if err := a.Install(`L3 echo@NI(NI, K) :- lookup@NI(NI, K).`); err != nil {
		t.Fatal(err)
	}
	if a.plan == bPlan || len(a.fires) != len(bPlan.Rules)+1 {
		t.Fatalf("install on a: a runs %d strands on %p, b's plan is %p", len(a.fires), a.plan, bPlan)
	}
	if b.plan != bPlan || len(b.fires) != len(bPlan.Rules) || !slices.Equal(b.RuleStats(), bStats) {
		t.Fatalf("install on a changed b: plan %p -> %p, rule stats %v -> %v", bPlan, b.plan, bStats, b.RuleStats())
	}
	for i, rb := range bPlan.Rules {
		if a.plan.Rules[i].Entry != rb.Entry {
			t.Fatalf("rule %s: a's extended plan enters another element than b's", rb.ID)
		}
	}
	echoA, echoB := r.watch("a", "echo", DirSent), r.watch("b", "echo", DirSent)
	a.InjectTuple(tuple.New("lookup", val.Str("k"), val.Int(7)))
	b.InjectTuple(tuple.New("lookup", val.Str("k"), val.Int(7)))
	r.loop.Run(r.loop.Now() + 0.001)
	if len(*echoA) != 1 || len(*echoB) != 0 {
		t.Fatalf("installed rule fired %d times on a and %d on b, want 1 and 0", len(*echoA), len(*echoB))
	}
}
