package health

import (
	"strings"
	"testing"

	"p2/internal/overlog"
	"p2/internal/planner"
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
