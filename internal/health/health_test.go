package health

import (
	"fmt"
	"strings"
	"testing"

	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/transport"
)

func cond(t *testing.T, conds []Condition, ct ConditionType) Condition {
	t.Helper()
	for _, c := range conds {
		if c.Type == ct {
			return c
		}
	}
	t.Fatalf("condition %s missing from %v", ct, conds)
	return Condition{}
}

func TestConditionsStartUnknown(t *testing.T) {
	e := NewEvaluator(Config{}, 3.0)
	if len(e.Conditions()) != len(ConditionTypes()) {
		t.Fatalf("catalogue size %d", len(e.Conditions()))
	}
	for _, c := range e.Conditions() {
		if c.Status != StatusUnknown || c.LastTransition != 3.0 {
			t.Fatalf("initial condition %+v", c)
		}
	}
}

func TestPartitionedRaisesAndDecays(t *testing.T) {
	e := NewEvaluator(Config{SuspectWindow: 10}, 0)

	// Quiet sample: nothing suspect.
	conds := e.Eval(Sample{Now: 1, Peers: []transport.DestStats{{Addr: "b"}}})
	if c := cond(t, conds, Partitioned); c.Status != StatusFalse {
		t.Fatalf("quiet overlay Partitioned = %+v", c)
	}

	// Failure drops toward b appear: Partitioned turns True, and the
	// transition is stamped at this eval.
	drops := transport.DropCounts{}
	drops[transport.RetryExhausted] = 3
	conds = e.Eval(Sample{Now: 5, Peers: []transport.DestStats{{Addr: "b", Drops: drops}}})
	c := cond(t, conds, Partitioned)
	if c.Status != StatusTrue || c.LastTransition != 5 {
		t.Fatalf("Partitioned after drops = %+v", c)
	}
	if !strings.Contains(c.Reason, "b") {
		t.Fatalf("reason does not name the peer: %q", c.Reason)
	}
	if rb := cond(t, conds, RetryBudgetExhausted); rb.Status != StatusTrue {
		t.Fatalf("RetryBudgetExhausted = %+v", rb)
	}
	if cv := cond(t, conds, Converged); cv.Status != StatusFalse {
		t.Fatalf("Converged during partition = %+v", cv)
	}

	// Counters stop advancing: within the window the peer stays
	// suspect, past it the condition decays back to False.
	conds = e.Eval(Sample{Now: 12, Peers: []transport.DestStats{{Addr: "b", Drops: drops}}})
	if c := cond(t, conds, Partitioned); c.Status != StatusTrue {
		t.Fatalf("still inside suspect window: %+v", c)
	}
	conds = e.Eval(Sample{Now: 16, Peers: []transport.DestStats{{Addr: "b", Drops: drops}}})
	c = cond(t, conds, Partitioned)
	if c.Status != StatusFalse || c.LastTransition != 16 {
		t.Fatalf("Partitioned after decay = %+v", c)
	}
	if rb := cond(t, conds, RetryBudgetExhausted); rb.Status != StatusFalse {
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
	drops := func(n int64) transport.DropCounts {
		var d transport.DropCounts
		d[transport.RetryExhausted] = n
		return d
	}
	for _, tc := range []struct {
		name string
		mid  []transport.DestStats // the sample at t=20
	}{
		{"absent", nil},
		{"restarted", []transport.DestStats{{Addr: "b"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEvaluator(Config{SuspectWindow: 10}, 0)
			e.Eval(Sample{Now: 1, Peers: []transport.DestStats{{Addr: "b", Drops: drops(3)}}})
			conds := e.Eval(Sample{Now: 20, Peers: tc.mid})
			if c := cond(t, conds, Partitioned); c.Status != StatusFalse {
				t.Fatalf("Partitioned after the episode aged out = %+v", c)
			}
			conds = e.Eval(Sample{Now: 30, Peers: []transport.DestStats{{Addr: "b", Drops: drops(1)}}})
			if c := cond(t, conds, Partitioned); c.Status != StatusTrue || c.LastTransition != 30 {
				t.Fatalf("Partitioned on a new episode after reclaim = %+v", c)
			}
			if c := cond(t, conds, RetryBudgetExhausted); c.Status != StatusTrue || c.LastTransition != 30 {
				t.Fatalf("RetryBudgetExhausted on a new episode after reclaim = %+v", c)
			}
		})
	}
}

// TestEvaluatorForgetsGonePeers: the evaluator's per-peer memory
// follows the peers the transport still reports, so a node that talks
// to many peers over its life keeps state for its working set only. A
// gone peer is remembered while it is still suspect.
func TestEvaluatorForgetsGonePeers(t *testing.T) {
	e := NewEvaluator(Config{SuspectWindow: 10}, 0)
	var dead transport.DropCounts
	dead[transport.PeerDead] = 1
	e.Eval(Sample{Now: 0, Peers: []transport.DestStats{{Addr: "dead", Drops: dead}}})
	for i := 0; i < 1000; i++ {
		e.Eval(Sample{Now: 1 + float64(i)/200, Peers: []transport.DestStats{{Addr: fmt.Sprintf("p%04d", i)}}})
	}
	if _, ok := e.peers["dead"]; len(e.peers) != 2 || !ok {
		t.Fatalf("evaluator remembers %d peers after 1000 distinct ones, want the last and the suspect one", len(e.peers))
	}
	// Back inside its suspect window with no new drops, the peer is
	// still suspect.
	conds := e.Eval(Sample{Now: 7, Peers: []transport.DestStats{{Addr: "dead", Drops: dead}}})
	if c := cond(t, conds, Partitioned); c.Status != StatusTrue {
		t.Fatalf("Partitioned when the remembered suspect returns = %+v", c)
	}
	e.Eval(Sample{Now: 11})
	if len(e.peers) != 0 {
		t.Fatalf("evaluator remembers %d peers once none is reported or suspect", len(e.peers))
	}
}

func TestLastTransitionStableWithoutChange(t *testing.T) {
	e := NewEvaluator(Config{}, 0)
	e.Eval(Sample{Now: 1})
	first := cond(t, e.Conditions(), Partitioned).LastTransition
	e.Eval(Sample{Now: 2})
	e.Eval(Sample{Now: 3})
	if got := cond(t, e.Conditions(), Partitioned).LastTransition; got != first {
		t.Fatalf("LastTransition moved without a status change: %v -> %v", first, got)
	}
}

func TestChurnStormAndConvergence(t *testing.T) {
	e := NewEvaluator(Config{ChurnRate: 10, ConvergeWindow: 5}, 0)

	// First sample: churn rate unjudgeable, ChurnStorm stays Unknown.
	conds := e.Eval(Sample{Now: 1, Churn: 100})
	if c := cond(t, conds, ChurnStorm); c.Status != StatusUnknown {
		t.Fatalf("first-sample ChurnStorm = %+v", c)
	}

	// 200 deltas over 1 s >> 10/s: storm.
	conds = e.Eval(Sample{Now: 2, Churn: 300})
	if c := cond(t, conds, ChurnStorm); c.Status != StatusTrue {
		t.Fatalf("ChurnStorm under load = %+v", c)
	}
	if c := cond(t, conds, Converged); c.Status == StatusTrue {
		t.Fatalf("Converged during storm = %+v", c)
	}

	// Churn stops: storm clears immediately, Converged turns True only
	// after the tables have been quiet a full ConvergeWindow.
	conds = e.Eval(Sample{Now: 4, Churn: 300})
	if c := cond(t, conds, ChurnStorm); c.Status != StatusFalse {
		t.Fatalf("ChurnStorm after quiet = %+v", c)
	}
	if c := cond(t, conds, Converged); c.Status != StatusFalse {
		t.Fatalf("Converged before window = %+v", c)
	}
	conds = e.Eval(Sample{Now: 8, Churn: 300})
	c := cond(t, conds, Converged)
	if c.Status != StatusTrue || c.LastTransition != 8 {
		t.Fatalf("Converged after quiet window = %+v", c)
	}
}

func TestBacklogSaturated(t *testing.T) {
	e := NewEvaluator(Config{BacklogFraction: 0.5}, 0)
	conds := e.Eval(Sample{Now: 1, QueueCap: 100, Peers: []transport.DestStats{
		{Addr: "b", Backlog: 10}, {Addr: "c", Backlog: 60},
	}})
	c := cond(t, conds, BacklogSaturated)
	if c.Status != StatusTrue || !strings.Contains(c.Reason, "c") {
		t.Fatalf("BacklogSaturated = %+v", c)
	}
	conds = e.Eval(Sample{Now: 2, QueueCap: 100, Peers: []transport.DestStats{
		{Addr: "b", Backlog: 10}, {Addr: "c", Backlog: 5},
	}})
	if c := cond(t, conds, BacklogSaturated); c.Status != StatusFalse {
		t.Fatalf("drained backlog = %+v", c)
	}
}

func TestEvalDeterministic(t *testing.T) {
	run := func() []Condition {
		e := NewEvaluator(Config{}, 0)
		drops := transport.DropCounts{}
		drops[transport.PeerDead] = 2
		e.Eval(Sample{Now: 1, Churn: 10, Peers: []transport.DestStats{{Addr: "b"}}})
		e.Eval(Sample{Now: 2, Churn: 50, Peers: []transport.DestStats{{Addr: "b", Drops: drops}}})
		e.Eval(Sample{Now: 9, Churn: 50, Peers: []transport.DestStats{{Addr: "b", Drops: drops}}})
		out := make([]Condition, len(e.Conditions()))
		copy(out, e.Conditions())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRollup(t *testing.T) {
	mk := func(addr string, part Status, partAt float64, conv Status) NodeHealth {
		return NodeHealth{Addr: addr, Conditions: []Condition{
			{Type: Converged, Status: conv, LastTransition: 1},
			{Type: Partitioned, Status: part, Reason: "peer x unreachable", LastTransition: partAt},
			{Type: ChurnStorm, Status: StatusFalse},
			{Type: RetryBudgetExhausted, Status: StatusFalse},
			{Type: BacklogSaturated, Status: StatusFalse},
		}}
	}

	roll := Rollup([]NodeHealth{
		mk("a", StatusFalse, 2, StatusTrue),
		mk("b", StatusTrue, 7, StatusFalse),
	})
	p := cond(t, roll, Partitioned)
	if p.Status != StatusTrue || p.LastTransition != 7 || !strings.Contains(p.Reason, "b:") {
		t.Fatalf("rollup Partitioned = %+v", p)
	}
	if c := cond(t, roll, Converged); c.Status != StatusFalse {
		t.Fatalf("rollup Converged = %+v", c)
	}
	if c := cond(t, roll, ChurnStorm); c.Status != StatusFalse {
		t.Fatalf("rollup ChurnStorm = %+v", c)
	}

	healthy := Rollup([]NodeHealth{
		mk("a", StatusFalse, 2, StatusTrue),
		mk("b", StatusFalse, 3, StatusTrue),
	})
	if c := cond(t, healthy, Converged); c.Status != StatusTrue {
		t.Fatalf("all-converged rollup = %+v", c)
	}
	if c := cond(t, healthy, Partitioned); c.Status != StatusFalse {
		t.Fatalf("healthy rollup Partitioned = %+v", c)
	}

	if c := cond(t, Rollup(nil), Partitioned); c.Status != StatusUnknown {
		t.Fatalf("empty rollup = %+v", c)
	}
}

// TestMonitorSourceCompiles plans the rule library against the system
// schemas — the guarantee that Install(MonitorSource()) succeeds on any
// node.
func TestMonitorSourceCompiles(t *testing.T) {
	prog, err := overlog.Parse(MonitorSource())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := planner.Compile(prog, nil); err != nil {
		t.Fatalf("plan: %v", err)
	}
}
