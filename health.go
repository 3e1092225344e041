package p2

// The deployment-level health surface: typed conditions re-exported
// from internal/health, the structured HealthSnapshot API, and the
// Prometheus /metrics endpoint of UDP deployments (WithMetrics). The
// per-node machinery — the OverLog condition rules deriving sysHealth
// on every introspection refresh, the transport's classified drop
// counters — lives in the engine and internal/health; this file is the
// operator-facing view over it.

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/transport"
)

// IsSystemRelation reports whether a relation name lives in the
// reserved "sys" namespace.
func IsSystemRelation(name string) bool { return introspect.IsReserved(name) }

// Health types, re-exported for application use.
type (
	// Condition is one evaluated health condition: type, ternary
	// status, human-readable reason, and the node time of the last
	// status transition — one of the node's sysHealth rows, which the
	// condition library derives on every introspection refresh.
	Condition = health.Condition
	// ConditionType names a condition in the catalogue.
	ConditionType = health.ConditionType
	// ConditionStatus is a condition's ternary state.
	ConditionStatus = health.Status
	// NodeHealth is one node's condition catalogue inside a snapshot.
	NodeHealth = health.NodeHealth
	// HealthSnapshot is a whole-deployment health capture (see
	// Deployment.HealthSnapshot).
	HealthSnapshot = health.Snapshot
	// DropCause classifies why the transport abandoned a tuple.
	DropCause = transport.DropCause
	// DropCounts is a per-cause drop counter vector, indexed by
	// DropCause.
	DropCounts = transport.DropCounts
)

// The condition catalogue. Converged asserts health (True is good);
// the rest assert problems (True is bad).
const (
	Converged            = health.Converged
	Partitioned          = health.Partitioned
	ChurnStorm           = health.ChurnStorm
	RetryBudgetExhausted = health.RetryBudgetExhausted
	BacklogSaturated     = health.BacklogSaturated
	KVUnderReplicated    = health.KVUnderReplicated
)

// Condition statuses.
const (
	ConditionTrue    = health.StatusTrue
	ConditionFalse   = health.StatusFalse
	ConditionUnknown = health.StatusUnknown
)

// Drop causes (see TransportConfig and the sysNet drop columns).
const (
	DropRetryExhausted  = transport.RetryExhausted
	DropSessionClosed   = transport.SessionClosed
	DropPeerDead        = transport.PeerDead
	DropBacklogOverflow = transport.BacklogOverflow
)

// ConditionTypes returns the condition catalogue in canonical order.
func ConditionTypes() []ConditionType { return health.ConditionTypes() }

// DropCauses returns every drop cause in counter order.
func DropCauses() []DropCause { return transport.DropCauses() }

// HealthMonitorSource returns the shipped OverLog monitor library:
// rules over sysHealth and sysNet that materialize healthAlarm,
// deadPeer, lossyPeer, and dropTotal relations. Install it on any live
// node with Handle.Install.
func HealthMonitorSource() string { return health.MonitorSource() }

// Conditions returns the node's condition catalogue, in canonical
// order, as its sysHealth rows hold it. On a node without a sys*
// audience, or before its first introspection refresh, every condition
// is Unknown.
func (h *Handle) Conditions() []Condition {
	var out []Condition
	h.Do(func(n *Node) { out = n.Conditions() })
	return out
}

// HealthSnapshot captures every live node's conditions plus the
// overlay-wide rollup, nodes sorted by address. On a simulated
// deployment call it from driver context; the result is then a pure
// function of (seed, program, virtual time) — bit-identical at every
// shard count. It reflects each node's latest refresh; nodes without a
// sys* audience report Unknown throughout.
func (d *Deployment) HealthSnapshot() HealthSnapshot {
	snap := HealthSnapshot{Time: d.Now()}
	nodes := d.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Addr() < nodes[j].Addr() })
	for _, h := range nodes {
		conds := h.Conditions()
		if conds == nil {
			continue // killed while iterating
		}
		snap.Nodes = append(snap.Nodes, NodeHealth{Addr: h.Addr(), Conditions: conds})
	}
	snap.Overlay = health.Rollup(snap.Nodes)
	return snap
}

// MetricsAddr returns the Prometheus endpoint's listen address
// ("" when WithMetrics was not given). With WithMetrics(":0") this is
// how the chosen port is discovered.
func (d *Deployment) MetricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// startMetrics binds the /metrics listener (UDP deployments only).
func (d *Deployment) startMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("p2: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.serveMetrics)
	d.metricsLn = ln
	d.metricsSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go d.metricsSrv.Serve(ln)
	return nil
}

// serveMetrics renders every live node in Prometheus text format.
func (d *Deployment) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	health.WriteMetrics(w, d.collectMetrics())
}

// collectMetrics gathers one NodeMetrics per live node, sorted by
// address. Each node is read on its owning loop (Handle.Do), so the
// values within one node are a consistent cut.
func (d *Deployment) collectMetrics() []health.NodeMetrics {
	nodes := d.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Addr() < nodes[j].Addr() })
	out := make([]health.NodeMetrics, 0, len(nodes))
	for _, h := range nodes {
		var m health.NodeMetrics
		ok := false
		h.Do(func(n *Node) {
			m.Addr = n.Addr()
			ns := n.NodeStat()
			m.UptimeS, m.RuleFires = ns.UptimeS, ns.Events
			for _, ts := range n.TableStats() {
				if !IsSystemRelation(ts.Name) {
					m.Tuples += int64(ts.Tuples)
				}
			}
			for _, st := range n.NetStats() {
				m.Sent += st.Sent
				m.Recvd += st.Recvd
				m.Retransmits += st.Retries
				m.Cwnd += st.Cwnd
				m.Backlog += int64(st.Backlog)
				for c, v := range st.Drops {
					m.Drops[c] += v
				}
			}
			m.Conditions = n.Conditions()
			ok = true
		})
		if ok {
			out = append(out, m)
		}
	}
	return out
}
