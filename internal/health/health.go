// Package health is the operability subsystem: it turns the runtime's
// introspection counters (the sys* tables, the transport's classified
// drop counters) into typed health conditions with Kubernetes-style
// status/reason/lastTransition semantics, and renders them for
// operators — as sysHealth tuples queryable from OverLog, as a
// structured HealthSnapshot, and as Prometheus text metrics.
//
// The conditions are judged in OverLog: a rule library over sysNode,
// sysNet, sysTable and sysKV derives the sysHealth rows, and Graft puts
// it on a node's plan when the node first gains a sys* audience. The rules read only the node's own
// counters and clock, both bit-identical across simulator shard
// counts, so a sharded replay derives byte-for-byte the same
// conditions as a serial one. Go code here only reads the rows back
// (FromRows) and folds them across nodes (Rollup).
package health

import (
	"fmt"

	"p2/internal/tuple"
)

// ConditionType names one evaluated condition.
type ConditionType string

// The condition catalogue. Converged is a "good" condition (True is
// healthy); the others assert a problem (True is unhealthy).
const (
	// Converged: the node's application tables have stopped churning
	// and every peer is acknowledging — the overlay has settled.
	Converged ConditionType = "Converged"
	// Partitioned: at least one peer has abandoned tuples (retry budget
	// exhausted or presumed dead) within the suspect window.
	Partitioned ConditionType = "Partitioned"
	// ChurnStorm: application-table delta rate exceeds 50 deltas/s —
	// membership or state is thrashing.
	ChurnStorm ConditionType = "ChurnStorm"
	// RetryBudgetExhausted: tuples were abandoned after their full
	// retry budget within the suspect window.
	RetryBudgetExhausted ConditionType = "RetryBudgetExhausted"
	// BacklogSaturated: some peer's send backlog is at or past the
	// saturation threshold — the node derives faster than it can ship.
	BacklogSaturated ConditionType = "BacklogSaturated"
	// KVUnderReplicated: the node holds keys but its reachable replica
	// fan-out (itself plus live successors) is below the key-value
	// service's write quorum — new writes routed here cannot reach
	// quorum and held keys are one failure from loss. Unknown on nodes
	// not running the key-value service.
	KVUnderReplicated ConditionType = "KVUnderReplicated"
)

// ConditionTypes returns the catalogue in its canonical (evaluation and
// rendering) order.
func ConditionTypes() []ConditionType {
	return []ConditionType{
		Converged, Partitioned, ChurnStorm, RetryBudgetExhausted, BacklogSaturated,
		KVUnderReplicated,
	}
}

// Status is a condition's ternary state.
type Status string

const (
	StatusUnknown Status = "Unknown" // not enough samples to judge
	StatusTrue    Status = "True"
	StatusFalse   Status = "False"
)

// Gauge renders the status as the Prometheus p2_condition value:
// True=1, False=0, Unknown=-1.
func (s Status) Gauge() float64 {
	switch s {
	case StatusTrue:
		return 1
	case StatusFalse:
		return 0
	}
	return -1
}

// Condition is one evaluated condition: what it asserts, whether it
// currently holds, why, and when it last flipped — one sysHealth row.
type Condition struct {
	Type           ConditionType
	Status         Status
	Reason         string  // current evidence, updated every evaluation
	LastTransition float64 // node time (seconds) of the last Status change
}

// FromRows reads a node's sysHealth rows into the catalogue, in
// canonical order. A condition with no row reads Unknown, "no samples
// yet": the node has no sys* audience, or has not refreshed yet.
func FromRows(rows []*tuple.Tuple) []Condition {
	out := make([]Condition, 0, len(ConditionTypes()))
	for _, ct := range ConditionTypes() {
		c := Condition{Type: ct, Status: StatusUnknown, Reason: "no samples yet"}
		for _, r := range rows {
			if r.Field(1).AsStr() == string(ct) {
				c.Status, c.Reason, c.LastTransition = Status(r.Field(2).AsStr()), r.Field(3).AsStr(), r.Field(4).AsFloat()
			}
		}
		out = append(out, c)
	}
	return out
}

// NodeHealth is one node's evaluated catalogue, as HealthSnapshot
// reports it.
type NodeHealth struct {
	Addr       string
	Conditions []Condition
}

// Snapshot is a whole-deployment health capture: every live node's
// catalogue (sorted by address) plus the overlay-wide rollup. On a
// simulated deployment it is a pure function of (seed, program, time),
// identical at every shard count.
type Snapshot struct {
	Time    float64 // deployment clock at capture
	Nodes   []NodeHealth
	Overlay []Condition
}

// Rollup folds per-node conditions into overlay-wide ones. For problem
// conditions (everything but Converged) the overlay condition is True
// if any node raises it; Converged is True only when every node has
// converged. LastTransition is the latest transition among the nodes
// that determine the status, so identical inputs give identical
// rollups — the function is stateless and deterministic.
func Rollup(nodes []NodeHealth) []Condition {
	out := make([]Condition, 0, len(ConditionTypes()))
	for _, ct := range ConditionTypes() {
		var nTrue, nFalse, nUnknown int
		var sinceAll, sinceDecisive float64
		var firstReason string
		for _, nh := range nodes {
			for _, c := range nh.Conditions {
				if c.Type != ct {
					continue
				}
				// A node is decisive when its status alone forces the
				// rollup's: True for problem conditions, False for
				// Converged. The rollup's Since is the latest decisive
				// transition, or the latest transition overall when the
				// status is unanimous.
				decisive := false
				switch c.Status {
				case StatusTrue:
					nTrue++
					decisive = ct != Converged
				case StatusFalse:
					nFalse++
					decisive = ct == Converged
				default:
					nUnknown++
				}
				if c.LastTransition > sinceAll {
					sinceAll = c.LastTransition
				}
				if decisive {
					if firstReason == "" {
						firstReason = fmt.Sprintf("%s: %s", nh.Addr, c.Reason)
					}
					if c.LastTransition > sinceDecisive {
						sinceDecisive = c.LastTransition
					}
				}
			}
		}
		since := sinceAll
		if sinceDecisive > 0 {
			since = sinceDecisive
		}
		c := Condition{Type: ct}
		total := nTrue + nFalse + nUnknown
		switch {
		case total == 0:
			c.Status, c.Reason = StatusUnknown, "no nodes"
		case ct == Converged:
			switch {
			case nFalse > 0:
				c.Status = StatusFalse
				c.Reason = fmt.Sprintf("%d/%d node(s) not converged; %s", nFalse, total, firstReason)
			case nUnknown > 0:
				c.Status, c.Reason = StatusUnknown, fmt.Sprintf("%d/%d node(s) still warming up", nUnknown, total)
			default:
				c.Status, c.Reason = StatusTrue, fmt.Sprintf("all %d node(s) converged", total)
			}
		default:
			switch {
			case nTrue > 0:
				c.Status = StatusTrue
				c.Reason = fmt.Sprintf("%d/%d node(s) report %s; %s", nTrue, total, ct, firstReason)
			case nUnknown == total:
				c.Status, c.Reason = StatusUnknown, "no samples yet"
			default:
				c.Status, c.Reason = StatusFalse, fmt.Sprintf("no node reports %s", ct)
			}
		}
		if c.Status != StatusUnknown {
			c.LastTransition = since
		}
		out = append(out, c)
	}
	return out
}
