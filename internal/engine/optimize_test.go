package engine

// Tests for the cost-based query optimizer's engine integration:
// tuple equivalence between textual and optimized plans (including
// shared probe caches), adaptive replanning driven by the
// introspection refresh, and the sysPlan system table.

import (
	"fmt"
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

// startOne builds a single node running src with the given options on
// its own simulated world.
func startOne(t *testing.T, src string, opts Options) (*eventloop.Sim, *Node) {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := planner.Compile(prog, nil)
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

// diffSrc is a confluent program (head tables keyed on every column,
// infinite TTL, no deletes or aggregates), so any execution order must
// converge to the same table contents. It exercises every optimizer
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
	nLoop, naive := startOne(t, diffSrc, Options{Seed: 1, NoJitter: true})
	oLoop, opt := startOne(t, diffSrc, Options{Seed: 1, NoJitter: true,
		Optimizer: &planner.OptimizerConfig{}})
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

	// The optimizer node answered the A2/A3 probes from A1's shared
	// cache and pushed filters ahead of joins, so it must have done
	// strictly less probe work for identical output.
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
// directly: with only NoReorder/NoPushdown left on, strands still share
// the first probe, and each applies its own residual selection.
func TestSharedProbeStrandsKeepOwnFilters(t *testing.T) {
	_, n := startOne(t, diffSrc, Options{Seed: 1, NoJitter: true,
		Optimizer: &planner.OptimizerConfig{NoReorder: true, NoPushdown: true}})
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
		t.Fatalf("sharable strands wired = %d, want A1+A2+A3", shared)
	}
}

// TestFoldSkipMatchesUnfusedChain runs a finger-table-shaped min and max
// through the engine with the fold on and off: 60 hop(I, B, P) rows
// naming 5 distinct (B, P), mixed Int and Float B for one of them, in a
// bucket shuffled by replacements. The fold records its distinct
// columns and derives what the unfused chain derives. Its first probe
// walks the bucket and counts every row it visits, as the chain does;
// the later ones are answered from its row cache, so they count
// strictly less.
func TestFoldSkipMatchesUnfusedChain(t *testing.T) {
	const src = `
		materialize(hop, infinity, infinity, keys(2)).
		materialize(nearest, infinity, infinity, keys(1,2)).
		materialize(farthest, infinity, infinity, keys(1,2)).
		F1 nearest@X(X, K, min<D>) :- probe@X(X, K), hop@X(X, I, B, P), D := (K - B) / 2, B < K.
		F2 farthest@X(X, K, max<P>) :- probe@X(X, K), hop@X(X, I, B, P), B < K.
	`
	// drive returns the probes counted by the first lookup and by the
	// fifteen after it.
	drive := func(opts Options) (n *Node, first, rest int64) {
		loop, n := startOne(t, src, opts)
		hop := func(i int64, b val.Value, p int64) {
			n.InjectTuple(tuple.New("hop", val.Str("a"), val.Int(i), b, val.Int(p)))
		}
		for i := int64(0); i < 60; i++ {
			hop(i, val.Int(i/12*3), i/12)
		}
		for i := int64(5); i < 60; i += 7 { // replacements swap-remove and append
			hop(i, val.Float(float64(i/12*3)), i/12)
		}
		loop.Run(1)
		before := n.Stats().Probes
		n.InjectTuple(tuple.New("probe", val.Str("a"), val.Int(0)))
		loop.Run(2)
		first = n.Stats().Probes - before
		for k := int64(1); k < 16; k++ {
			n.InjectTuple(tuple.New("probe", val.Str("a"), val.Int(k)))
		}
		loop.Run(3)
		return n, first, n.Stats().Probes - before - first
	}
	// NoShare: the two unfused joins would otherwise answer one probe
	// from the other's cache, which is not the difference under test.
	chain, chainFirst, chainRest := drive(Options{Seed: 1, NoJitter: true, Optimizer: &planner.OptimizerConfig{NoShare: true, NoFold: true}})
	fold, foldFirst, foldRest := drive(Options{Seed: 1, NoJitter: true, Optimizer: &planner.OptimizerConfig{NoShare: true}})

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

const replanSrc = `
	materialize(big, infinity, infinity, keys(1,2)).
	materialize(small, infinity, infinity, keys(1,2)).
	materialize(out, infinity, infinity, keys(1,2,3)).
	R1 out@X(X, B, S) :- evt@X(X), big@X(X, B), small@X(X, S).
`

// TestReplanKeepsRuleIdentity is the replan regression test: growing a
// relation far past the cardinality its plan was costed with must swap
// the strand's plan in place on the next introspection refresh — same
// rule ID, monotonic sysRule fire counter, Replans visible in sysPlan.
func TestReplanKeepsRuleIdentity(t *testing.T) {
	// Explicit interval: the test ends by reading sysPlan rows, and
	// optimizer-only ticks don't deliver them.
	loop, n := startOne(t, replanSrc, Options{Seed: 1, NoJitter: true,
		IntrospectInterval: 1, Optimizer: &planner.OptimizerConfig{}})

	planOf := func() introspect.PlanStat {
		t.Helper()
		for _, ps := range n.PlanStats() {
			if ps.Rule == "R1" {
				return ps
			}
		}
		t.Fatal("R1 missing from PlanStats")
		return introspect.PlanStat{}
	}
	firesOf := func() int64 {
		t.Helper()
		for _, rs := range n.RuleStats() {
			if rs.ID == "R1" {
				return rs.Fires
			}
		}
		return -1
	}

	// At start the catalog sees both tables as equals: textual order.
	before := planOf()
	if before.Order != "0,1" || before.Replans != 0 {
		t.Fatalf("start plan = %+v, want order 0,1 with no replans", before)
	}

	// Fire the rule once against small tables.
	n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(1)))
	n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(2)))
	n.InjectTuple(tuple.New("evt", val.Str("a")))
	loop.Run(2)
	if firesOf() != 1 {
		t.Fatalf("fires before replan = %d, want 1", firesOf())
	}

	// Grow big to 140 rows — 4x past the costed basis of 32 — and let
	// the next refresh notice.
	for i := 0; i < 140; i++ {
		n.InjectTuple(tuple.New("big", val.Str("a"), val.Int(int64(i))))
	}
	loop.Run(2)

	after := planOf()
	if after.Replans < 1 {
		t.Fatalf("plan after growth = %+v, want a replan", after)
	}
	if after.Order != "1,0" {
		t.Fatalf("replanned order = %q, want small probed first (1,0)", after.Order)
	}
	if after.Rule != "R1" {
		t.Fatalf("replan changed the rule ID: %q", after.Rule)
	}

	// The swapped strand keeps its identity: the fire counter continues
	// from where it was, and the rule still derives tuples.
	n.InjectTuple(tuple.New("evt", val.Str("a")))
	loop.Run(1)
	if firesOf() != 2 {
		t.Fatalf("fires after replan = %d, want 2 (monotonic across swap)", firesOf())
	}
	if got := n.Table("out").Len(); got != 280 {
		t.Fatalf("out rows = %d, want 140x2", got)
	}

	// And the whole story is queryable from OverLog via sysPlan.
	var row *tuple.Tuple
	for _, r := range n.Table(introspect.PlanRelation).ScanSorted() {
		if r.Field(1).AsStr() == "R1" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no sysPlan row for R1")
	}
	if row.Field(2).AsStr() != "1,0" || row.Field(4).AsInt() < 1 {
		t.Fatalf("sysPlan row = %v, want order 1,0 and replans >= 1", row)
	}
	if row.Field(3).AsFloat() <= 0 {
		t.Fatalf("sysPlan cost = %v, want > 0", row.Field(3))
	}
}

// TestSysPlanWithoutOptimizer: the relation exists and is queryable
// even when no optimizer is configured — rules just report the textual
// plan markers.
func TestSysPlanWithoutOptimizer(t *testing.T) {
	// Explicit interval: without the optimizer (or a sys* consumer) the
	// demand-driven refresh would never run and the relation would stay
	// empty.
	loop, n := startOne(t, replanSrc, Options{Seed: 1, NoJitter: true,
		IntrospectInterval: 1})
	loop.Run(2)
	rows := n.Table(introspect.PlanRelation).ScanSorted()
	if len(rows) == 0 {
		t.Fatal("sysPlan empty without optimizer")
	}
	for _, r := range rows {
		if r.Field(2).AsStr() != "-" || r.Field(4).AsInt() != 0 {
			t.Fatalf("unoptimized sysPlan row = %v, want order - and 0 replans", r)
		}
	}
}

// TestInstallOptimizesNewRules: rules grafted in at runtime go through
// the optimizer against live statistics immediately.
func TestInstallOptimizesNewRules(t *testing.T) {
	loop, n := startOne(t, replanSrc, Options{Seed: 1, NoJitter: true,
		Optimizer: &planner.OptimizerConfig{}})
	for i := 0; i < 100; i++ {
		n.InjectTuple(tuple.New("big", val.Str("a"), val.Int(int64(i))))
	}
	n.InjectTuple(tuple.New("small", val.Str("a"), val.Int(1)))
	loop.Run(1)
	if err := n.Install(fmt.Sprintf(`
		materialize(out2, infinity, infinity, keys(1,2,3)).
		I1 out2@X(X, B, S) :- evt@X(X), big@X(X, B), small@X(X, S).
	`)); err != nil {
		t.Fatal(err)
	}
	loop.Run(1)
	for _, ps := range n.PlanStats() {
		if ps.Rule == "I1" {
			// Live stats at install time: big is 100x small, so the
			// installed rule probes small first from the start.
			if ps.Order != "1,0" {
				t.Fatalf("installed plan = %+v, want order 1,0", ps)
			}
			return
		}
	}
	t.Fatal("installed rule I1 missing from PlanStats")
}
