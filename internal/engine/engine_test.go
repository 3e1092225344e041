package engine

import (
	"testing"

	"p2/internal/eventloop"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// rig is a small test harness: a sim loop, network, and nodes all
// executing the same program.
type rig struct {
	t     *testing.T
	loop  *eventloop.Sim
	net   *simnet.Net
	nodes map[string]*Node
}

func newRig(t *testing.T, src string, addrs ...string) *rig {
	return newRigOpts(t, src, Options{}, addrs...)
}

// newRigOpts builds the rig with extra node options merged over the
// defaults (Seed stays per-node).
func newRigOpts(t *testing.T, src string, opts Options, addrs ...string) *rig {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := planner.Compile(prog, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return newPlanRig(t, plan, opts, addrs...)
}

// newPlanRig is newRigOpts for an already compiled plan.
func newPlanRig(t *testing.T, plan *planner.Plan, opts Options, addrs ...string) *rig {
	t.Helper()
	loop := eventloop.NewSim()
	cfg := simnet.DefaultConfig()
	cfg.Domains = 1
	net := simnet.New(loop, cfg)
	r := &rig{t: t, loop: loop, net: net, nodes: make(map[string]*Node)}
	for i, a := range addrs {
		o := opts
		o.Seed = int64(i + 1)
		o.NoJitter = true
		n := NewNode(a, loop, net, plan, o)
		if err := n.Start(); err != nil {
			t.Fatalf("start %s: %v", a, err)
		}
		r.nodes[a] = n
	}
	return r
}

// watch collects tuples of the given name and direction on a node.
func (r *rig) watch(addr, name string, dir Direction) *[]*tuple.Tuple {
	var got []*tuple.Tuple
	r.nodes[addr].Watch(name, func(ev WatchEvent) {
		if ev.Dir == dir {
			got = append(got, ev.Tuple)
		}
	})
	return &got
}

func TestPingPongAcrossNodes(t *testing.T) {
	// The Narada latency-measurement rules P1-P3 (§2.3), exercised
	// across two real engine nodes over the simulated network.
	src := `
		P1 ping@Y(Y, X, E, T) :- pingEvent@X(X, Y, E), T := f_now().
		P2 pong@X(X, Y, E, T) :- ping@Y(Y, X, E, T).
		P3 latency@X(X, Y, T) :- pong@X(X, Y, E, T1), T := f_now() - T1.
	`
	r := newRig(t, src, "a", "b")
	lat := r.watch("a", "latency", DirDerived)

	r.nodes["a"].InjectTuple(tuple.New("pingEvent",
		val.Str("a"), val.Str("b"), val.Str("e1")))
	r.loop.Run(5)

	if len(*lat) != 1 {
		t.Fatalf("latency tuples = %d, want 1", len(*lat))
	}
	got := (*lat)[0]
	if got.Field(0).AsStr() != "a" || got.Field(1).AsStr() != "b" {
		t.Fatalf("latency tuple = %v", got)
	}
	// Same-domain RTT = 2 * 2 ms plus serialization; it must be
	// positive and well under a second.
	rtt := got.Field(2).AsFloat()
	if rtt <= 0 || rtt > 1 {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestPeriodicDrivesSequence(t *testing.T) {
	// Narada R1-R3: a periodic refresh increments a stored sequence.
	src := `
		materialize(sequence, infinity, 1, keys(2)).
		S0 sequence@X(X, Seq) :- periodic@X(X, E, 0, 1), Seq := 0.
		R1 refreshEvent@X(X) :- periodic@X(X, E, 3).
		R2 refreshSeq@X(X, NewSeq) :- refreshEvent@X(X), sequence@X(X, Seq),
			NewSeq := Seq + 1.
		R3 sequence@X(X, NewSeq) :- refreshSeq@X(X, NewSeq).
	`
	r := newRig(t, src, "a")
	r.loop.Run(10) // refreshes at t=3, 6, 9 (NoJitter)
	rows := r.nodes["a"].Table("sequence").Scan()
	if len(rows) != 1 {
		t.Fatalf("sequence rows = %v", rows)
	}
	if got := rows[0].Field(1).AsInt(); got != 3 {
		t.Fatalf("sequence = %d, want 3", got)
	}
}

func TestTableDeltaTriggersRule(t *testing.T) {
	src := `
		materialize(succ, infinity, 16, keys(2)).
		N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
	`
	r := newRig(t, src, "a")
	evts := r.watch("a", "succEvent", DirDerived)
	row := tuple.New("succ", val.Str("a"), val.Int(42), val.Str("b"))
	r.nodes["a"].InjectTuple(row)
	r.nodes["a"].InjectTuple(row) // identical refresh: no delta
	r.loop.Run(1)
	if len(*evts) != 1 {
		t.Fatalf("succEvent fired %d times, want 1 (refresh must not re-fire)", len(*evts))
	}
}

func TestContinuousTableAggregate(t *testing.T) {
	// N2/N3/N4: best successor selection via a continuous min.
	src := `
		materialize(node, infinity, 1, keys(1)).
		materialize(succ, infinity, 16, keys(2)).
		materialize(succDist, infinity, 100, keys(2)).
		materialize(bestSucc, infinity, 1, keys(1)).
		N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
		N2 succDist@NI(NI, S, D) :- node@NI(NI, N), succEvent@NI(NI, S, SI),
			D := S - N - 1.
		N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D).
		N4 bestSucc@NI(NI, S, SI) :- succ@NI(NI, S, SI),
			bestSuccDist@NI(NI, D), node@NI(NI, N), D == S - N - 1.
	`
	r := newRig(t, src, "a")
	a := r.nodes["a"]
	a.AddFact("node", val.Str("a"), val.Int(100))
	a.InjectTuple(tuple.New("succ", val.Str("a"), val.Int(180), val.Str("s180")))
	r.loop.Run(1)
	best := a.Table("bestSucc").Scan()
	if len(best) != 1 || best[0].Field(2).AsStr() != "s180" {
		t.Fatalf("bestSucc = %v", best)
	}
	// A closer successor takes over.
	a.InjectTuple(tuple.New("succ", val.Str("a"), val.Int(120), val.Str("s120")))
	r.loop.Run(2)
	best = a.Table("bestSucc").Scan()
	if len(best) != 1 || best[0].Field(2).AsStr() != "s120" {
		t.Fatalf("bestSucc after closer join = %v", best)
	}
	// A farther successor must NOT take over.
	a.InjectTuple(tuple.New("succ", val.Str("a"), val.Int(200), val.Str("s200")))
	r.loop.Run(3)
	best = a.Table("bestSucc").Scan()
	if best[0].Field(2).AsStr() != "s120" {
		t.Fatalf("bestSucc disturbed by farther successor: %v", best)
	}
}

func TestExemplarAggregatePicksWinner(t *testing.T) {
	// Narada P0: choose ONE member, the max<R> exemplar.
	src := `
		materialize(member, infinity, infinity, keys(2)).
		P0 pingEvent@X(X, Y, E, max<R>) :- periodic@X(X, E, 2),
			member@X(X, Y), R := f_rand().
	`
	r := newRig(t, src, "a")
	evts := r.watch("a", "pingEvent", DirDerived)
	a := r.nodes["a"]
	for _, m := range []string{"m1", "m2", "m3", "m4"} {
		a.AddFact("member", val.Str("a"), val.Str(m))
	}
	r.loop.Run(7) // fires at 2, 4, 6
	if len(*evts) != 3 {
		t.Fatalf("pingEvents = %d, want 3", len(*evts))
	}
	for _, e := range *evts {
		y := e.Field(1).AsStr()
		if y != "m1" && y != "m2" && y != "m3" && y != "m4" {
			t.Fatalf("exemplar member = %q", y)
		}
		if e.Arity() != 4 {
			t.Fatalf("pingEvent arity = %d", e.Arity())
		}
	}
}

func TestCountZeroGroup(t *testing.T) {
	// Narada R5/R6: counting matches of an unknown member yields 0 and
	// the store-what-you-got rule fires.
	src := `
		materialize(member, infinity, infinity, keys(2)).
		R5 membersFound@X(X, A, AS, count<*>) :- refresh@X(X, A, AS),
			member@X(X, A), X != A.
		R6 member@X(X, A) :- membersFound@X(X, A, AS, C), C == 0.
	`
	r := newRig(t, src, "a")
	a := r.nodes["a"]
	a.InjectTuple(tuple.New("refresh", val.Str("a"), val.Str("newguy"), val.Int(7)))
	r.loop.Run(1)
	rows := a.Table("member").Scan()
	if len(rows) != 1 || rows[0].Field(1).AsStr() != "newguy" {
		t.Fatalf("member = %v", rows)
	}
	// Second refresh for a now-known member: count is 1, R6 silent.
	derived := r.watch("a", "membersFound", DirDerived)
	a.InjectTuple(tuple.New("refresh", val.Str("a"), val.Str("newguy"), val.Int(8)))
	r.loop.Run(2)
	if len(*derived) != 1 {
		t.Fatalf("membersFound = %d", len(*derived))
	}
	if c := (*derived)[0].Field(3).AsInt(); c != 1 {
		t.Fatalf("count = %d, want 1", c)
	}
}

func TestNegationAndDelete(t *testing.T) {
	src := `
		materialize(neighbor, infinity, infinity, keys(2)).
		A1 neighbor@X(X, Y) :- hello@X(X, Y), not neighbor@X(X, Y).
		A2 delete neighbor@X(X, Y) :- goodbye@X(X, Y).
	`
	r := newRig(t, src, "a")
	a := r.nodes["a"]
	a.InjectTuple(tuple.New("hello", val.Str("a"), val.Str("b")))
	r.loop.Run(1)
	if a.Table("neighbor").Len() != 1 {
		t.Fatal("neighbor not added")
	}
	a.InjectTuple(tuple.New("goodbye", val.Str("a"), val.Str("b")))
	r.loop.Run(2)
	if a.Table("neighbor").Len() != 0 {
		t.Fatal("neighbor not deleted")
	}
}

func TestFactsInstallAtStart(t *testing.T) {
	src := `
		materialize(landmark, infinity, 1, keys(1)).
		materialize(nextFingerFix, infinity, 1, keys(1)).
		F0 nextFingerFix@NI(NI, 0).
		L0 landmark@NI(NI, "boot:0").
	`
	r := newRig(t, src, "n7")
	r.loop.Run(0.1)
	lm := r.nodes["n7"].Table("landmark").Scan()
	if len(lm) != 1 || lm[0].Field(0).AsStr() != "n7" || lm[0].Field(1).AsStr() != "boot:0" {
		t.Fatalf("landmark = %v", lm)
	}
	ff := r.nodes["n7"].Table("nextFingerFix").Scan()
	if len(ff) != 1 || ff[0].Field(1).AsInt() != 0 {
		t.Fatalf("nextFingerFix = %v", ff)
	}
}

func TestRemoteDeliveryStoresInRemoteTable(t *testing.T) {
	// R4-style: a rule at X that deposits rows at Y.
	src := `
		materialize(member, infinity, infinity, keys(2)).
		materialize(neighbor, infinity, infinity, keys(2)).
		R4 member@Y(Y, A) :- refreshSeq@X(X, S), member@X(X, A),
			neighbor@X(X, Y).
	`
	r := newRig(t, src, "a", "b")
	a := r.nodes["a"]
	a.AddFact("member", val.Str("a"), val.Str("m1"))
	a.AddFact("member", val.Str("a"), val.Str("m2"))
	a.AddFact("neighbor", val.Str("a"), val.Str("b"))
	a.InjectTuple(tuple.New("refreshSeq", val.Str("a"), val.Int(1)))
	r.loop.Run(5)
	rows := r.nodes["b"].Table("member").ScanSorted()
	if len(rows) != 2 {
		t.Fatalf("b.member = %v", rows)
	}
	if rows[0].Field(0).AsStr() != "b" {
		t.Fatalf("remote rows must be relocated: %v", rows[0])
	}
	var recvd int64
	for _, d := range r.nodes["b"].Transport().PerDest() {
		recvd += d.Recvd
	}
	if a.Transport().Stats().TuplesSent == 0 || recvd == 0 {
		t.Fatal("network counters silent")
	}
}

func TestTTLExpiryWithSweep(t *testing.T) {
	src := `
		materialize(pendingPing, 10, infinity, keys(2)).
	`
	r := newRig(t, src, "a")
	a := r.nodes["a"]
	a.InjectTuple(tuple.New("pendingPing", val.Str("a"), val.Str("b")))
	r.loop.Run(5)
	if a.Table("pendingPing").Len() != 1 {
		t.Fatal("row should live at t=5")
	}
	r.loop.Run(12)
	if a.Table("pendingPing").Len() != 0 {
		t.Fatal("row should expire by t=12")
	}
}

func TestStopSilencesNode(t *testing.T) {
	src := `
		R1 tick@X(X, E) :- periodic@X(X, E, 1).
	`
	r := newRig(t, src, "a")
	ticks := r.watch("a", "tick", DirDerived)
	r.loop.Run(3.5)
	n := len(*ticks)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	r.nodes["a"].Stop()
	r.loop.Run(10)
	if len(*ticks) != n {
		t.Fatal("stopped node still ticking")
	}
	if n := r.nodes["a"]; n.started && !n.stopped {
		t.Fatal("running after stop")
	}
}

func TestDoubleStartFails(t *testing.T) {
	r := newRig(t, `R1 t@X(X) :- periodic@X(X, E, 1).`, "a")
	if err := r.nodes["a"].Start(); err == nil {
		t.Fatal("second start must fail")
	}
}

func TestDroppedTupleCounted(t *testing.T) {
	r := newRig(t, `R1 t@X(X) :- periodic@X(X, E, 100).`, "a")
	r.nodes["a"].InjectTuple(tuple.New("nobodyListens", val.Str("a")))
	r.loop.Run(1)
	if r.nodes["a"].Stats().TuplesDropped != 1 {
		t.Fatalf("dropped = %d", r.nodes["a"].Stats().TuplesDropped)
	}
}

func TestRecursiveRuleReachesFixpointViaRefreshSuppression(t *testing.T) {
	// t :- t-style recursion through a table terminates because
	// identical re-insertions produce no delta.
	src := `
		materialize(reach, infinity, infinity, keys(2,3)).
		materialize(link, infinity, infinity, keys(2,3)).
		R1 reach@X(X, A, B) :- link@X(X, A, B).
		R2 reach@X(X, A, C) :- reach@X(X, A, B), link@X(X, B, C).
	`
	r := newRig(t, src, "a")
	a := r.nodes["a"]
	// A 4-node chain: 1→2→3→4.
	for _, l := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
		a.InjectTuple(tuple.New("link", val.Str("a"), val.Int(l[0]), val.Int(l[1])))
	}
	r.loop.Run(2)
	reach := a.Table("reach").Len()
	if reach != 6 { // 1→2,1→3,1→4,2→3,2→4,3→4
		t.Fatalf("transitive closure = %d rows, want 6", reach)
	}
}
