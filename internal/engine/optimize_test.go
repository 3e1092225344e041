package engine

// Tests for the engine's side of the query planner: tuple equivalence
// between textual and planned strands (including shared probe caches),
// plans fixed when compiled, and the sysPlan system table.

import (
	"reflect"
	"strings"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/introspect"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// compileFunc is planner.Compile, or planner.CompileTextual for the
// reference plan a planned strand is checked against.
type compileFunc func(*overlog.Program, map[string]val.Value) (*planner.Plan, error)

// startOne builds a single node running src, as Compile plans it, with
// the given options on its own simulated world.
func startOne(t *testing.T, src string, opts Options) (*eventloop.Sim, *Node) {
	t.Helper()
	return startWith(t, planner.Compile, src, opts)
}

// startWith is startOne with the compiler chosen by the caller.
func startWith(t *testing.T, compile compileFunc, src string, opts Options) (*eventloop.Sim, *Node) {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	loop := eventloop.NewSim()
	cfg := simnet.DefaultConfig()
	cfg.Domains = 1
	net := simnet.New(loop, cfg)
	n := NewNode("a", loop, net, plan, opts)
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return loop, n
}

// planOf returns the node's sysPlan row for rule id.
func planOf(t *testing.T, n *Node, id string) introspect.PlanStat {
	t.Helper()
	for _, ps := range n.PlanStats() {
		if ps.Rule == id {
			return ps
		}
	}
	t.Fatalf("%s missing from PlanStats", id)
	return introspect.PlanStat{}
}

// diffSrc is a confluent program (head tables keyed on every column,
// infinite TTL, no deletes or aggregates), so any execution order must
// converge to the same table contents. It exercises every planner
// transformation at once: A1 is a two-table join with an arithmetic
// assign and a filter (reorder + pushdown), and A1-A3 all open with the
// same probe of link on the same key (probe sharing), each with a
// different residual filter.
const diffSrc = `
	materialize(link, infinity, infinity, keys(1,2)).
	materialize(weight, infinity, infinity, keys(1,2)).
	materialize(outA, infinity, infinity, keys(1,2,3,4)).
	materialize(outB, infinity, infinity, keys(1,2,3)).
	materialize(outC, infinity, infinity, keys(1,2,3)).
	A1 outA@X(X, N, W, S) :- probe@X(X, K), link@X(X, N), weight@X(X, W), S := K + W, W > 1.
	A2 outB@X(X, N, K) :- probe@X(X, K), link@X(X, N), K > 6.
	A3 outC@X(X, N, K) :- probe@X(X, K), link@X(X, N), N > 2.
`

// driveDiff injects the same fact-and-event script into a node:
// some base rows, a burst of probes, a mid-stream table mutation (to
// force shared-cache invalidation), and a second burst.
func driveDiff(loop *eventloop.Sim, n *Node) {
	ins := func(name string, vals ...int64) {
		fs := []val.Value{val.Str("a")}
		for _, v := range vals {
			fs = append(fs, val.Int(v))
		}
		n.InjectTuple(tuple.New(name, fs...))
	}
	for i := int64(1); i <= 4; i++ {
		ins("link", i)
	}
	for _, w := range []int64{0, 2, 5} {
		ins("weight", w)
	}
	for k := int64(5); k <= 9; k++ {
		ins("probe", k)
	}
	loop.Run(1)
	ins("link", 7) // mutate the shared relation between bursts
	for k := int64(10); k <= 12; k++ {
		ins("probe", k)
	}
	loop.Run(1)
}

func TestOptimizedPlanIsTupleEquivalent(t *testing.T) {
	nLoop, naive := startWith(t, planner.CompileTextual, diffSrc, Options{Seed: 1, NoJitter: true})
	oLoop, opt := startOne(t, diffSrc, Options{Seed: 1, NoJitter: true})
	driveDiff(nLoop, naive)
	driveDiff(oLoop, opt)

	for _, rel := range []string{"outA", "outB", "outC"} {
		want := naive.Table(rel).ScanSorted()
		got := opt.Table(rel).ScanSorted()
		if len(want) == 0 {
			t.Fatalf("%s: empty on the naive node — test proves nothing", rel)
		}
		if !reflect.DeepEqual(renderAll(want), renderAll(got)) {
			t.Fatalf("%s diverged:\n  naive %v\n  opt   %v",
				rel, renderAll(want), renderAll(got))
		}
	}

	// Both nodes answer the A2/A3 probes from A1's shared cache, and the
	// planned node pushed A2's filter ahead of its join, so it must have
	// done strictly less probe work for identical output.
	if np, op := naive.Stats().Probes, opt.Stats().Probes; op >= np {
		t.Fatalf("probes: optimized %d >= naive %d", op, np)
	}
}

func renderAll(rows []*tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestSharedProbeStrandsKeepOwnFilters pins the sharing machinery
// directly: strands on one trigger that open with the same probe share
// it whatever their plan, textual or planned, and each applies its own
// residual selection.
func TestSharedProbeStrandsKeepOwnFilters(t *testing.T) {
	for name, compile := range map[string]compileFunc{"textual": planner.CompileTextual, "planned": planner.Compile} {
		_, n := startWith(t, compile, diffSrc, Options{Seed: 1, NoJitter: true})
		shared := 0
		for _, group := range n.strands {
			keys := map[string]int{}
			for _, s := range group {
				if s.firstJoin != nil {
					keys[s.shareKey]++
				}
			}
			for _, c := range keys {
				if c >= 2 {
					shared += c
				}
			}
		}
		if shared < 3 {
			t.Fatalf("%s: sharable strands wired = %d, want A1+A2+A3", name, shared)
		}
	}
}

// TestFoldSkipMatchesUnfusedChain runs a finger-table-shaped min and max
// through the engine planned (folded) and textual (the unfused chain):
// 60 hop(I, B, P) rows naming 5 distinct (B, P), mixed Int and Float B
// for one of them, in a bucket shuffled by replacements. The fold
// records its distinct columns and derives what the unfused chain
// derives. Its first probe walks the bucket and counts every row it
// visits, as the chain does; the later ones are answered from its row
// cache, so they count strictly less.
func TestFoldSkipMatchesUnfusedChain(t *testing.T) {
	// Each rule has its own trigger: two unfused joins on one trigger
	// would answer one probe from the other's cache, which is not the
	// difference under test.
	const src = `
		materialize(hop, infinity, infinity, keys(2)).
		materialize(nearest, infinity, infinity, keys(1,2)).
		materialize(farthest, infinity, infinity, keys(1,2)).
		F1 nearest@X(X, K, min<D>) :- near@X(X, K), hop@X(X, I, B, P), D := (K - B) / 2, B < K.
		F2 farthest@X(X, K, max<P>) :- far@X(X, K), hop@X(X, I, B, P), B < K.
	`
	// drive returns the probes counted by the first lookup pair and by
	// the fifteen pairs after it.
	drive := func(compile compileFunc) (n *Node, first, rest int64) {
		loop, n := startWith(t, compile, src, Options{Seed: 1, NoJitter: true})
		hop := func(i int64, b val.Value, p int64) {
			n.InjectTuple(tuple.New("hop", val.Str("a"), val.Int(i), b, val.Int(p)))
		}
		lookup := func(k int64) {
			n.InjectTuple(tuple.New("near", val.Str("a"), val.Int(k)))
			n.InjectTuple(tuple.New("far", val.Str("a"), val.Int(k)))
		}
		for i := int64(0); i < 60; i++ {
			hop(i, val.Int(i/12*3), i/12)
		}
		for i := int64(5); i < 60; i += 7 { // replacements swap-remove and append
			hop(i, val.Float(float64(i/12*3)), i/12)
		}
		loop.Run(1)
		before := n.Stats().Probes
		lookup(0)
		loop.Run(2)
		first = n.Stats().Probes - before
		for k := int64(1); k < 16; k++ {
			lookup(k)
		}
		loop.Run(3)
		return n, first, n.Stats().Probes - before - first
	}
	chain, chainFirst, chainRest := drive(planner.CompileTextual)
	fold, foldFirst, foldRest := drive(planner.Compile)

	for _, ps := range fold.PlanStats() {
		if !strings.Contains(ps.Order, " distinct[") {
			t.Fatalf("%s plan %q records no distinct columns", ps.Rule, ps.Order)
		}
	}
	for _, rel := range []string{"nearest", "farthest"} {
		want, got := renderAll(chain.Table(rel).ScanSorted()), renderAll(fold.Table(rel).ScanSorted())
		if len(want) == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("%s diverged:\n  chain %v\n  fold  %v", rel, want, got)
		}
	}
	if foldFirst != chainFirst || foldFirst == 0 {
		t.Fatalf("first lookup's probes: fold %d, chain %d: a cold walk counts every row it visits", foldFirst, chainFirst)
	}
	if foldRest >= chainRest {
		t.Fatalf("later lookups' probes: fold %d, chain %d: a warm row cache visits no rows", foldRest, chainRest)
	}
}

const bigSmallSrc = `
	materialize(big, infinity, infinity, keys(1,2)).
	materialize(small, infinity, infinity, keys(1,2)).
	materialize(out, infinity, infinity, keys(1,2,3)).
	R1 out@X(X, B, S) :- evt@X(X), big@X(X, B), small@X(X, S).
`

// TestPlansAreFixedAtStart: a rule is planned once, when it is
// compiled. A node nothing introspects keeps no timer, and a relation
// growing far past the catalog estimate its rule was costed with leaves
// the plan as it was — with or without the sys* refresh running. The
// strand keeps its rule ID and fire counter throughout, and sysPlan
// reports the plan from OverLog.
func TestPlansAreFixedAtStart(t *testing.T) {
	firesOf := func(n *Node) int64 {
		t.Helper()
		for _, rs := range n.RuleStats() {
			if rs.ID == "R1" {
				return rs.Fires
			}
		}
		return -1
	}
	// grow fills big to 140 rows, 4x past the 32 the catalog costed it
	// at, which would have favoured probing small first (order 1,0).
	grow := func(loop *eventloop.Sim, n *Node) {
		for i := 0; i < 140; i++ {
			n.InjectTuple(tuple.New("big", val.Str("a"), val.Int(int64(i))))
		}
		loop.Run(loop.Now() + 3)
	}

	// Default interval, no sys* consumer: the node arms no introspection
	// timer.
	loop, n := startOne(t, bigSmallSrc, Options{Seed: 1, NoJitter: true})
	if n.introTimer != nil {
		t.Fatal("a node nothing introspects armed the introspection timer")
	}
	start := planOf(t, n, "R1")
	if start.Order != "0,1" || start.CostEst <= 0 {
		t.Fatalf("start plan = %+v, want the catalog's order 0,1 at a positive cost", start)
	}
	grow(loop, n)
	if got := planOf(t, n, "R1"); got != start {
		t.Fatalf("plan after growth = %+v, want it unchanged from %+v", got, start)
	}

	// With the sys* refresh running every second, the same growth leaves
	// the same plan, and the strand fires on under one ID.
	loop, n = startOne(t, bigSmallSrc, Options{Seed: 1, NoJitter: true, IntrospectInterval: 1})
	n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(1)))
	n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(2)))
	n.InjectTuple(tuple.New("evt", val.Str("a")))
	loop.Run(2)
	if firesOf(n) != 1 {
		t.Fatalf("fires before growth = %d, want 1", firesOf(n))
	}
	grow(loop, n)
	if got := planOf(t, n, "R1"); got != start {
		t.Fatalf("plan after growth with the refresh on = %+v, want %+v", got, start)
	}
	n.InjectTuple(tuple.New("evt", val.Str("a")))
	loop.Run(loop.Now() + 1)
	if firesOf(n) != 2 {
		t.Fatalf("fires after growth = %d, want 2", firesOf(n))
	}
	if got := n.Table("out").Len(); got != 280 {
		t.Fatalf("out rows = %d, want 140x2", got)
	}

	// And the plan is queryable from OverLog via sysPlan.
	var row *tuple.Tuple
	for _, r := range n.Table(introspect.PlanRelation).ScanSorted() {
		if r.Field(1).AsStr() == "R1" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no sysPlan row for R1")
	}
	if row.Field(2).AsStr() != "0,1" || row.Field(3).AsFloat() <= 0 || row.Field(4).AsInt() != 0 {
		t.Fatalf("sysPlan row = %v, want order 0,1, cost > 0 and replans 0", row)
	}
}

// TestFrozenRuleReportsTextualPlan: a rule that draws randomness is
// frozen in its textual order, and sysPlan says so — order "-", cost 0 —
// beside the planned rules of the same program.
func TestFrozenRuleReportsTextualPlan(t *testing.T) {
	// Explicit interval: without a sys* consumer the demand-driven
	// refresh would never run and the relation would stay empty.
	loop, n := startOne(t, bigSmallSrc+`
		R2 out@X(X, B, C) :- evt@X(X), big@X(X, B), C := f_rand().
	`, Options{Seed: 1, NoJitter: true, IntrospectInterval: 1})
	loop.Run(2)
	rows := map[string]*tuple.Tuple{}
	for _, r := range n.Table(introspect.PlanRelation).ScanSorted() {
		rows[r.Field(1).AsStr()] = r
	}
	if r := rows["R2"]; r == nil || r.Field(2).AsStr() != "-" || r.Field(3).AsFloat() != 0 || r.Field(4).AsInt() != 0 {
		t.Fatalf("frozen rule's sysPlan row = %v, want order -, cost 0 and 0 replans", r)
	}
	if r := rows["R1"]; r == nil || r.Field(2).AsStr() != "0,1" || r.Field(3).AsFloat() <= 0 {
		t.Fatalf("planned rule's sysPlan row = %v, want order 0,1 at a positive cost", r)
	}
}

// TestInstalledPlanIgnoresTableSizes: a plan is a function of its
// source. A rule installed on a node whose big table holds 100 rows and
// small one row gets the plan it gets on a node with empty tables, and
// the plan Compile gives it as part of the start program.
func TestInstalledPlanIgnoresTableSizes(t *testing.T) {
	const i1 = `
		materialize(out2, infinity, infinity, keys(1,2,3)).
		I1 out2@X(X, B, S) :- evt@X(X), big@X(X, B), small@X(X, S).
	`
	installed := func(fill bool) introspect.PlanStat {
		t.Helper()
		loop, n := startOne(t, bigSmallSrc, Options{Seed: 1, NoJitter: true})
		if fill {
			for i := 0; i < 100; i++ {
				n.InjectTuple(tuple.New("big", val.Str("a"), val.Int(int64(i))))
			}
			n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(1)))
		}
		loop.Run(1)
		if got := n.Table("big").Len(); fill && got != 100 {
			t.Fatalf("big holds %d rows, want 100", got)
		}
		if err := n.Install(i1); err != nil {
			t.Fatal(err)
		}
		return planOf(t, n, "I1")
	}
	full, empty := installed(true), installed(false)
	_, n := startOne(t, bigSmallSrc+i1, Options{Seed: 1, NoJitter: true})
	compiled := planOf(t, n, "I1")
	if full != empty || full != compiled {
		t.Fatalf("I1's plan: installed beside 100 big rows %+v, installed on empty tables %+v, compiled at start %+v; want all three equal",
			full, empty, compiled)
	}
	if full.Order != "0,1" || full.CostEst <= 0 {
		t.Fatalf("I1's plan = %+v, want the catalog's order 0,1 at a positive cost", full)
	}
}
