package health_test

// The condition catalogue's behaviours, driven through its rules: one
// engine node carries the library (a Watch on sysHealth is its
// audience), its own refresh is off, and each evaluation is a set of
// sys* rows delivered by hand — the node's sysTable, sysNet and sysKV
// rows, then the sysNode row whose delta runs the rules.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/val"
)

// sample is one evaluation's input: the node clock, the application
// tables' cumulative inserts plus deletes, the transport's peers and
// the key-value service's row (nil on a node without the service).
type sample struct {
	now   float64
	churn int64
	peers []introspect.NetStat
	kv    *introspect.KVStat
}

type rig struct {
	t     *testing.T
	loop  *eventloop.Sim
	n     *engine.Node
	start float64
}

// newRig starts the node at time start, its transport bounding each
// peer's backlog at queueCap, with a suspect window of 10 s.
func newRig(t *testing.T, start float64, queueCap int) *rig {
	t.Helper()
	loop := eventloop.NewSim()
	cfg := simnet.DefaultConfig()
	cfg.Domains = 1
	net := simnet.New(loop, cfg)
	plan := planner.MustCompile(overlog.MustParse(""), map[string]val.Value{"sysSuspectWindow": val.Int(10)})
	tc := transport.DefaultConfig()
	tc.QueueCap = queueCap
	n := engine.NewNode("a", loop, net, plan, engine.Options{IntrospectInterval: -1, Transport: &tc})
	loop.Run(start)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Watch(introspect.HealthRelation, func(engine.WatchEvent) {})
	return &rig{t: t, loop: loop, n: n, start: start}
}

// eval delivers s's rows at s.now and returns the conditions the rules
// derive from them. Rows of peers s does not report leave sysNet, as
// they would once the refresh stops renewing them.
func (r *rig) eval(s sample) []health.Condition {
	r.t.Helper()
	r.loop.Run(s.now)
	addr := val.Str("a")
	var rows []*tuple.Tuple
	rows = append(rows, introspect.TableTuple(addr, introspect.TableStat{Name: "t", Inserts: s.churn}))
	nets := r.n.Table(introspect.NetRelation)
	for _, row := range nets.Scan() {
		if !slices.ContainsFunc(s.peers, func(p introspect.NetStat) bool { return p.Dest == row.Field(1).AsStr() }) {
			nets.Delete(row)
		}
	}
	for _, p := range s.peers {
		rows = append(rows, introspect.NetTuple(addr, p))
	}
	if s.kv != nil {
		rows = append(rows, introspect.KVTuple(addr, *s.kv))
	}
	rows = append(rows, introspect.NodeTuple(addr, introspect.NodeStat{UptimeS: s.now - r.start}))
	for _, row := range rows {
		r.n.InjectTuple(row)
	}
	r.loop.Run(s.now)
	return r.n.Conditions()
}

func cond(t *testing.T, conds []health.Condition, ct health.ConditionType) health.Condition {
	t.Helper()
	for _, c := range conds {
		if c.Type == ct {
			return c
		}
	}
	t.Fatalf("condition %s missing from %v", ct, conds)
	return health.Condition{}
}

// peer is a sysNet row toward dest with the given failure drops.
func peer(dest string, retry, dead int64) introspect.NetStat {
	st := introspect.NetStat{Dest: dest}
	st.Drops[transport.RetryExhausted] = retry
	st.Drops[transport.PeerDead] = dead
	return st
}

func TestConditionsStartUnknown(t *testing.T) {
	r := newRig(t, 3, 0)
	conds := r.n.Conditions()
	if len(conds) != len(health.ConditionTypes()) {
		t.Fatalf("catalogue size %d", len(conds))
	}
	for _, c := range conds {
		if c.Status != health.StatusUnknown {
			t.Fatalf("initial condition %+v", c)
		}
	}
	// A condition still Unknown after the first evaluation has been
	// since the node started.
	for _, c := range r.eval(sample{now: 4}) {
		if c.Status == health.StatusUnknown && c.LastTransition != 3.0 {
			t.Fatalf("Unknown condition after the first evaluation %+v", c)
		}
	}
}

func TestPartitionedRaisesAndDecays(t *testing.T) {
	r := newRig(t, 0, 0)

	// Quiet sample: nothing suspect.
	conds := r.eval(sample{now: 1, peers: []introspect.NetStat{peer("b", 0, 0)}})
	if c := cond(t, conds, health.Partitioned); c.Status != health.StatusFalse {
		t.Fatalf("quiet overlay Partitioned = %+v", c)
	}

	// Failure drops toward b appear: Partitioned turns True, and the
	// transition is stamped at this eval.
	drops := []introspect.NetStat{peer("b", 3, 0)}
	conds = r.eval(sample{now: 5, peers: drops})
	c := cond(t, conds, health.Partitioned)
	if c.Status != health.StatusTrue || c.LastTransition != 5 {
		t.Fatalf("Partitioned after drops = %+v", c)
	}
	if !strings.Contains(c.Reason, "b") {
		t.Fatalf("reason does not name the peer: %q", c.Reason)
	}
	if rb := cond(t, conds, health.RetryBudgetExhausted); rb.Status != health.StatusTrue {
		t.Fatalf("RetryBudgetExhausted = %+v", rb)
	}
	if cv := cond(t, conds, health.Converged); cv.Status != health.StatusFalse {
		t.Fatalf("Converged during partition = %+v", cv)
	}

	// Counters stop advancing: within the window the peer stays
	// suspect, past it the condition decays back to False.
	conds = r.eval(sample{now: 12, peers: drops})
	if c := cond(t, conds, health.Partitioned); c.Status != health.StatusTrue {
		t.Fatalf("still inside suspect window: %+v", c)
	}
	conds = r.eval(sample{now: 16, peers: drops})
	c = cond(t, conds, health.Partitioned)
	if c.Status != health.StatusFalse || c.LastTransition != 16 {
		t.Fatalf("Partitioned after decay = %+v", c)
	}
	if rb := cond(t, conds, health.RetryBudgetExhausted); rb.Status != health.StatusFalse {
		t.Fatalf("RetryBudgetExhausted after decay = %+v", rb)
	}
}

// TestFailuresAfterFlowReclaim: the transport's flow janitor reclaims
// an idle peer's flow, and the flow's drop counters restart from zero.
// A new failure episode toward that peer must raise the conditions
// again at once, not only once its count passes the old one — whether
// the sampler saw the peer vanish (the janitor ran between samples) or
// only saw its counters fall (the flow was reclaimed and reopened
// between two samples).
func TestFailuresAfterFlowReclaim(t *testing.T) {
	for _, tc := range []struct {
		name string
		mid  []introspect.NetStat // the sample at t=20
	}{
		{"absent", nil},
		{"restarted", []introspect.NetStat{peer("b", 0, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 0, 0)
			r.eval(sample{now: 1, peers: []introspect.NetStat{peer("b", 3, 0)}})
			conds := r.eval(sample{now: 20, peers: tc.mid})
			if c := cond(t, conds, health.Partitioned); c.Status != health.StatusFalse {
				t.Fatalf("Partitioned after the episode aged out = %+v", c)
			}
			conds = r.eval(sample{now: 30, peers: []introspect.NetStat{peer("b", 1, 0)}})
			if c := cond(t, conds, health.Partitioned); c.Status != health.StatusTrue || c.LastTransition != 30 {
				t.Fatalf("Partitioned on a new episode after reclaim = %+v", c)
			}
			if c := cond(t, conds, health.RetryBudgetExhausted); c.Status != health.StatusTrue || c.LastTransition != 30 {
				t.Fatalf("RetryBudgetExhausted on a new episode after reclaim = %+v", c)
			}
		})
	}
}

// TestEvaluatorForgetsGonePeers: the rules' per-peer memory follows the
// peers the transport still reports, so a node that talks to many
// peers over its life keeps state for its working set only: the
// remembered counts (sysPeerFails) hold the reported peers and the
// suspect ones, and the suspicion table the peers whose failures
// advanced within the window. A gone peer is remembered while it is
// still suspect.
func TestEvaluatorForgetsGonePeers(t *testing.T) {
	r := newRig(t, 0, 0)
	rows := func(name string) int { return len(r.n.Table(name).Scan()) }
	r.eval(sample{now: 0, peers: []introspect.NetStat{peer("dead", 0, 1)}})
	for i := 0; i < 1000; i++ {
		r.eval(sample{now: 1 + float64(i)/200, peers: []introspect.NetStat{peer(fmt.Sprintf("p%04d", i), 0, 0)}})
	}
	if got := rows("sysPeerFails"); got != 2 {
		t.Fatalf("rules remember %d peers after 1000 distinct ones, want the last and the suspect one", got)
	}
	if got := rows(health.SuspectTable); got != 1 {
		t.Fatalf("%d suspicion rows after 1000 healthy peers, want the dead one", got)
	}
	// Back inside its suspect window with no new drops, the peer is
	// still suspect.
	conds := r.eval(sample{now: 7, peers: []introspect.NetStat{peer("dead", 0, 1)}})
	if c := cond(t, conds, health.Partitioned); c.Status != health.StatusTrue {
		t.Fatalf("Partitioned when the remembered suspect returns = %+v", c)
	}
	r.eval(sample{now: 11})
	if got, suspects := rows("sysPeerFails"), rows(health.SuspectTable); got != 0 || suspects != 0 {
		t.Fatalf("rules remember %d peers and %d suspects once none is reported or suspect", got, suspects)
	}
}

func TestLastTransitionStableWithoutChange(t *testing.T) {
	r := newRig(t, 0, 0)
	first := cond(t, r.eval(sample{now: 1}), health.Partitioned).LastTransition
	r.eval(sample{now: 2})
	if got := cond(t, r.eval(sample{now: 3}), health.Partitioned).LastTransition; got != first {
		t.Fatalf("LastTransition moved without a status change: %v -> %v", first, got)
	}
}

func TestChurnStormAndConvergence(t *testing.T) {
	r := newRig(t, 0, 0)

	// First sample: churn rate unjudgeable, ChurnStorm stays Unknown.
	conds := r.eval(sample{now: 1, churn: 100})
	if c := cond(t, conds, health.ChurnStorm); c.Status != health.StatusUnknown {
		t.Fatalf("first-sample ChurnStorm = %+v", c)
	}

	// 200 deltas over 1 s >> 50/s: storm.
	conds = r.eval(sample{now: 2, churn: 300})
	if c := cond(t, conds, health.ChurnStorm); c.Status != health.StatusTrue {
		t.Fatalf("ChurnStorm under load = %+v", c)
	}
	if c := cond(t, conds, health.Converged); c.Status == health.StatusTrue {
		t.Fatalf("Converged during storm = %+v", c)
	}

	// Churn stops: storm clears immediately, Converged turns True only
	// after the tables have been quiet a full 5 s.
	conds = r.eval(sample{now: 4, churn: 300})
	if c := cond(t, conds, health.ChurnStorm); c.Status != health.StatusFalse {
		t.Fatalf("ChurnStorm after quiet = %+v", c)
	}
	if c := cond(t, conds, health.Converged); c.Status != health.StatusFalse {
		t.Fatalf("Converged before window = %+v", c)
	}
	conds = r.eval(sample{now: 8, churn: 300})
	c := cond(t, conds, health.Converged)
	if c.Status != health.StatusTrue || c.LastTransition != 8 {
		t.Fatalf("Converged after quiet window = %+v", c)
	}
}

func TestBacklogSaturated(t *testing.T) {
	for _, tc := range []struct {
		queueCap   int
		saturated  int // a backlog at the threshold
		thresholdS string
	}{
		{100, 50, "(threshold 50)"}, // half of the bound
		{0, 256, "(threshold 256)"}, // unbounded
		{1, 1, "(threshold 1)"},     // at least 1
	} {
		t.Run(fmt.Sprint("QueueCap=", tc.queueCap), func(t *testing.T) {
			r := newRig(t, 0, tc.queueCap)
			busy := introspect.NetStat{Dest: "c", Backlog: tc.saturated}
			conds := r.eval(sample{now: 1, peers: []introspect.NetStat{{Dest: "b"}, busy}})
			c := cond(t, conds, health.BacklogSaturated)
			if c.Status != health.StatusTrue || !strings.Contains(c.Reason, "c") || !strings.Contains(c.Reason, tc.thresholdS) {
				t.Fatalf("BacklogSaturated = %+v", c)
			}
			busy.Backlog = tc.saturated - 1
			conds = r.eval(sample{now: 2, peers: []introspect.NetStat{{Dest: "b"}, busy}})
			if c := cond(t, conds, health.BacklogSaturated); c.Status != health.StatusFalse {
				t.Fatalf("drained backlog = %+v", c)
			}
		})
	}
}

func TestEvalDeterministic(t *testing.T) {
	run := func() []health.Condition {
		r := newRig(t, 0, 0)
		r.eval(sample{now: 1, churn: 10, peers: []introspect.NetStat{peer("b", 0, 0)}})
		r.eval(sample{now: 2, churn: 50, peers: []introspect.NetStat{peer("b", 0, 2)}})
		return r.eval(sample{now: 9, churn: 50, peers: []introspect.NetStat{peer("b", 0, 2)}})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestKVUnderReplicated walks the key-value condition through its four
// verdicts.
func TestKVUnderReplicated(t *testing.T) {
	r := newRig(t, 0, 0)
	for _, tc := range []struct {
		kv     *introspect.KVStat
		status health.Status
		reason string
	}{
		{nil, health.StatusUnknown, "kv service not running"},
		{&introspect.KVStat{Keys: 2}, health.StatusUnknown, "replication parameters not yet derived"},
		{&introspect.KVStat{Keys: 2, Replicas: 3, Quorum: 2}, health.StatusTrue, "2 key(s) held with replica fan-out 1 below quorum 2"},
		{&introspect.KVStat{Keys: 2, Replicas: 3, Quorum: 2, Succs: 2}, health.StatusFalse, "replica fan-out 3 of 3 meets quorum 2"},
	} {
		c := cond(t, r.eval(sample{now: r.loop.Now() + 1, kv: tc.kv}), health.KVUnderReplicated)
		if c.Status != tc.status || c.Reason != tc.reason {
			t.Fatalf("KVUnderReplicated with %+v = %+v, want %s %q", tc.kv, c, tc.status, tc.reason)
		}
	}
}
