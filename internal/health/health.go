// Package health is the operability subsystem: it turns the runtime's
// introspection counters (the sys* tables, the transport's classified
// drop counters) into typed health conditions with Kubernetes-style
// status/reason/lastTransition semantics, and renders them for
// operators — as sysHealth tuples queryable from OverLog, as a
// structured HealthSnapshot, and as Prometheus text metrics.
//
// The evaluator is deliberately deterministic: it consumes only the
// node's own counters and the node's clock, both of which are
// bit-identical across simulator shard counts, so a sharded replay
// produces byte-for-byte the same conditions as a serial one.
package health

import (
	"fmt"
	"sort"
	"strings"

	"p2/internal/introspect"
	"p2/internal/transport"
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
	// ChurnStorm: application-table delta rate exceeds the configured
	// threshold — membership or state is thrashing.
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
// currently holds, why, and when it last flipped.
type Condition struct {
	Type           ConditionType
	Status         Status
	Reason         string  // current evidence, updated every evaluation
	LastTransition float64 // node time (seconds) of the last Status change
}

// Config holds the evaluator's thresholds. The zero value resolves to
// the defaults below.
type Config struct {
	// SuspectWindow is how long (seconds) a peer stays suspect after
	// its last abandoned tuple, and how long RetryBudgetExhausted
	// stays raised after the last budget-exhausted drop. Default 10.
	SuspectWindow float64
	// ConvergeWindow is how long (seconds) the application tables must
	// stay delta-free before Converged turns True. Default 5.
	ConvergeWindow float64
	// ChurnRate is the application-table delta rate (inserts+deletes
	// per second, measured between evaluations) above which ChurnStorm
	// raises. Default 50.
	ChurnRate float64
	// BacklogFraction of the transport's QueueCap at which a peer's
	// backlog counts as saturated. Default 0.5.
	BacklogFraction float64
	// BacklogFloor is the absolute backlog that saturates when
	// QueueCap is unbounded (0). Default 256.
	BacklogFloor int
}

// DefaultConfig returns the default thresholds.
func DefaultConfig() Config {
	return Config{
		SuspectWindow:   10,
		ConvergeWindow:  5,
		ChurnRate:       50,
		BacklogFraction: 0.5,
		BacklogFloor:    256,
	}
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SuspectWindow <= 0 {
		c.SuspectWindow = d.SuspectWindow
	}
	if c.ConvergeWindow <= 0 {
		c.ConvergeWindow = d.ConvergeWindow
	}
	if c.ChurnRate <= 0 {
		c.ChurnRate = d.ChurnRate
	}
	if c.BacklogFraction <= 0 {
		c.BacklogFraction = d.BacklogFraction
	}
	if c.BacklogFloor <= 0 {
		c.BacklogFloor = d.BacklogFloor
	}
	return c
}

// Sample is everything one evaluation consumes. The engine builds it
// from the same rows that feed the sys* tables, on the node's event
// loop.
type Sample struct {
	Now      float64 // node clock, seconds
	Churn    int64   // cumulative inserts+deletes across application tables
	QueueCap int     // transport per-destination backlog bound (0 = unbounded)
	// Peers is the transport's per-peer accounting, sorted by address.
	// It is the refresh's reused buffer, overwritten by the next
	// sample: Eval reads it and must not keep it.
	Peers []transport.DestStats
	KV    *introspect.KVStat // the sysKV row; nil on nodes without the key-value service
}

// peerState is the evaluator's per-peer memory: the last observed
// failure-drop count, when it last advanced, and the evaluation that
// last sampled the peer.
type peerState struct {
	lastFail   int64
	lastFailAt float64
	seen       bool // lastFailAt is meaningful
	sampled    int64
}

// Evaluator computes the condition catalogue from successive Samples.
// It is single-goroutine state, owned by the node's event loop.
type Evaluator struct {
	cfg   Config
	conds []Condition // canonical order, ConditionTypes()

	evals       int64
	lastEvalAt  float64
	lastChurn   int64
	lastChurnAt float64 // when Churn last advanced
	peers       map[string]peerState
	failTot     int64   // failure drops observed, summed over per-peer increases
	lastFailAt  float64 // when any retry-budget drop was last observed
}

// NewEvaluator builds an evaluator whose conditions start Unknown with
// LastTransition = now.
func NewEvaluator(cfg Config, now float64) *Evaluator {
	e := &Evaluator{
		cfg:         cfg.withDefaults(),
		peers:       make(map[string]peerState),
		lastChurnAt: now,
	}
	for _, ct := range ConditionTypes() {
		e.conds = append(e.conds, Condition{
			Type: ct, Status: StatusUnknown, Reason: "no samples yet", LastTransition: now,
		})
	}
	return e
}

// Conditions returns the most recently evaluated catalogue, in
// canonical order. The slice is shared; callers must not mutate it.
func (e *Evaluator) Conditions() []Condition { return e.conds }

// set transitions (or just re-reasons) one condition.
func (e *Evaluator) set(ct ConditionType, status Status, reason string, now float64) {
	for i := range e.conds {
		if e.conds[i].Type != ct {
			continue
		}
		if e.conds[i].Status != status {
			e.conds[i].Status = status
			e.conds[i].LastTransition = now
		}
		e.conds[i].Reason = reason
		return
	}
}

// Eval folds one sample into the evaluator and returns the updated
// catalogue (the same slice Conditions returns).
func (e *Evaluator) Eval(s Sample) []Condition {
	now := s.Now
	cfg := e.cfg

	// Track per-peer failure drops (RetryExhausted + PeerDead): a peer
	// is suspect while its failure counter advanced within the suspect
	// window. Healing is decay — once traffic stops being abandoned,
	// the suspicion ages out. A count below the last one means the flow
	// janitor reclaimed the flow: the whole count is new failures.
	var suspects []string
	var failNew int64
	for _, p := range s.Peers {
		fails := p.Drops[transport.RetryExhausted] + p.Drops[transport.PeerDead]
		ps := e.peers[p.Addr]
		inc := fails - ps.lastFail
		if inc < 0 {
			inc = fails
		}
		if inc > 0 {
			failNew += inc
			ps.lastFailAt, ps.seen = now, true
		}
		ps.lastFail, ps.sampled = fails, e.evals
		e.peers[p.Addr] = ps
		if e.suspect(ps, now) {
			suspects = append(suspects, p.Addr)
		}
	}
	sort.Strings(suspects)
	// Forget unreported peers once their suspicion ages out: the memory
	// tracks the transport's working set of peers, not its history.
	for addr, ps := range e.peers {
		if ps.sampled != e.evals && !e.suspect(ps, now) {
			delete(e.peers, addr)
		}
	}

	// Partitioned.
	if len(suspects) > 0 {
		e.set(Partitioned, StatusTrue,
			fmt.Sprintf("%d peer(s) unreachable: %s", len(suspects), peerList(suspects)), now)
	} else {
		e.set(Partitioned, StatusFalse, "all peers acknowledging", now)
	}

	// RetryBudgetExhausted: raised while abandoned-tuple counters are
	// still advancing (same decay window as Partitioned).
	if failNew > 0 {
		e.failTot, e.lastFailAt = e.failTot+failNew, now
	}
	if e.failTot > 0 && now-e.lastFailAt < cfg.SuspectWindow {
		e.set(RetryBudgetExhausted, StatusTrue,
			fmt.Sprintf("%d tuple(s) abandoned after full retry budget", e.failTot), now)
	} else {
		e.set(RetryBudgetExhausted, StatusFalse, "no recent retry-budget drops", now)
	}

	// BacklogSaturated: worst peer against the threshold.
	thresh := cfg.BacklogFloor
	if s.QueueCap > 0 {
		thresh = int(cfg.BacklogFraction * float64(s.QueueCap))
		if thresh < 1 {
			thresh = 1
		}
	}
	worstAddr, worstBacklog := "", 0
	for i := range s.Peers {
		if p := &s.Peers[i]; p.Backlog > worstBacklog {
			worstAddr, worstBacklog = p.Addr, p.Backlog
		}
	}
	if worstBacklog >= thresh {
		e.set(BacklogSaturated, StatusTrue,
			fmt.Sprintf("backlog toward %s is %d (threshold %d)", worstAddr, worstBacklog, thresh), now)
	} else {
		e.set(BacklogSaturated, StatusFalse,
			fmt.Sprintf("worst backlog %d below threshold %d", worstBacklog, thresh), now)
	}

	// KVUnderReplicated: the key-value service's replica fan-out (the
	// node plus its live successors) against the write quorum. Pure
	// function of the sample, so sharded and serial runs agree.
	switch {
	case s.KV == nil:
		e.set(KVUnderReplicated, StatusUnknown, "kv service not running", now)
	case s.KV.Replicas == 0:
		e.set(KVUnderReplicated, StatusUnknown, "replication parameters not yet derived", now)
	case s.KV.Keys > 0 && int64(s.KV.Succs+1) < s.KV.Quorum:
		e.set(KVUnderReplicated, StatusTrue,
			fmt.Sprintf("%d key(s) held with replica fan-out %d below quorum %d",
				s.KV.Keys, s.KV.Succs+1, s.KV.Quorum), now)
	default:
		e.set(KVUnderReplicated, StatusFalse,
			fmt.Sprintf("replica fan-out %d of %d meets quorum %d",
				s.KV.Succs+1, s.KV.Replicas, s.KV.Quorum), now)
	}

	// Churn tracking: rate between evaluations, and the time the
	// application tables last produced a delta.
	if s.Churn > e.lastChurn {
		e.lastChurnAt = now
	}
	if e.evals > 0 && now > e.lastEvalAt {
		rate := float64(s.Churn-e.lastChurn) / (now - e.lastEvalAt)
		if rate > cfg.ChurnRate {
			e.set(ChurnStorm, StatusTrue,
				fmt.Sprintf("%.0f table deltas/s exceeds %.0f", rate, cfg.ChurnRate), now)
		} else {
			e.set(ChurnStorm, StatusFalse,
				fmt.Sprintf("%.0f table deltas/s within %.0f", rate, cfg.ChurnRate), now)
		}
	}
	e.lastChurn = s.Churn

	// Converged: tables delta-free for the converge window and no peer
	// suspect. Unknown until the node has been sampled that long.
	quiet := now - e.lastChurnAt
	switch {
	case quiet >= cfg.ConvergeWindow && len(suspects) == 0:
		e.set(Converged, StatusTrue,
			fmt.Sprintf("no table deltas for %.1fs", quiet), now)
	case e.evals == 0 && quiet < cfg.ConvergeWindow:
		// Still warming up: leave Unknown rather than flapping False.
	case len(suspects) > 0:
		e.set(Converged, StatusFalse,
			fmt.Sprintf("%d peer(s) unreachable", len(suspects)), now)
	default:
		e.set(Converged, StatusFalse, "tables still churning", now)
	}

	e.evals++
	e.lastEvalAt = now
	return e.conds
}

// suspect reports whether a peer's failures advanced within the
// suspect window.
func (e *Evaluator) suspect(ps peerState, now float64) bool {
	return ps.seen && now-ps.lastFailAt < e.cfg.SuspectWindow
}

// peerList renders up to three suspect addresses.
func peerList(addrs []string) string {
	if len(addrs) > 3 {
		return strings.Join(addrs[:3], ",") + ",…"
	}
	return strings.Join(addrs, ",")
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
