// Package p2 is a declarative overlay runtime: a Go reproduction of
// "Implementing Declarative Overlays" (Loo, Condie, Hellerstein,
// Maniatis, Roscoe, Stoica — SOSP 2005).
//
// Applications hand P2 an overlay specification written in OverLog, a
// Datalog dialect with location specifiers, soft-state tables, and
// aggregates. P2 compiles it into a graph of dataflow elements and
// executes it to build and maintain the overlay: a Narada-style mesh in
// 16 rules, a complete Chord DHT in ~47.
//
// # Quick start
//
//	plan, err := p2.Compile(p2.ChordSource, nil)
//	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(1))
//	defer d.Close()
//	n, err := d.Spawn("n0:p2", plan)
//	n.AddFact("landmark", p2.Str("n0:p2"), p2.Str("-"))
//	n.AddFact("join", p2.Str("n0:p2"), p2.Str("boot"))
//	d.Run(60) // advance 60 s of virtual time
//
// A Deployment is the single, runtime-agnostic surface over every
// execution environment: p2.Simulated runs nodes in virtual time over
// a simulated network, partitioned across the shards of a parallel
// conservative-lookahead simulator (p2.WithShards; bit-identical
// results at every shard count), and p2.UDP runs each node over real
// UDP sockets on its own wall-clock loop. The same Spawn / AddFact /
// Install / Watch / Kill call sequence builds the same overlay on
// either. Nodes are reached exclusively through the *Handle values
// Spawn returns, whose methods serialize onto the node's owning
// shard or loop — the simulator's shard-ownership rule, enforced by
// the API. Deployments also carry the structural dynamics first-class:
// Kill and Replace route through the epoch-barrier control lane, At
// schedules driver actions on it (the epoch in progress ends at the
// action's time, so it runs at exactly that time while every shard is
// quiescent), and EnableChurn runs Bamboo-style session churn with
// deterministic per-address session lengths.
//
// # Introspection
//
// Every node materializes its own runtime state as soft-state system
// tables, refreshed periodically on the event loop:
//
//	sysTable(@N, Name, Tuples, Inserts, Deletes, Refreshes)
//	sysRule(@N, Rule, Fires)
//	sysPlan(@N, Rule, Order, CostEst, Replans)
//	sysNet(@N, Dest, Sent, Recvd, Bytes, Retries, Cwnd, RTO, Backlog, BatchFill,
//	       DropsRetry, DropsClosed, DropsDead, DropsOverflow)
//	sysNode(@N, UptimeS, EventsProcessed, QueueLen)
//	sysHealth(@N, Type, Status, Reason, SinceS)
//	sysKV(@N, Keys, Replicas, Quorum, Succs, Repairs, Expiries, Pending)
//
// Monitoring queries are just more OverLog: Node.Install compiles
// rules at runtime and grafts them into the live dataflow, where they
// can join system tables, compute aggregates, and gossip health
// summaries across the overlay like any other rules:
//
//	n.Install(`
//		materialize(tupleTotal, infinity, 1, keys(1)).
//		M1 tupleTotal@N(N, sum<C>) :- sysTable@N(N, T, C, I, D, R).
//	`)
//
// The "sys" relation-name prefix is reserved. The same counters are
// available from Go via Node.TableStats, RuleStats, PlanStats,
// NetStats, and NodeStat; cmd/p2's -top flag renders them as a live
// view.
//
// # Query optimizer
//
// Compile plans every rule with a cost-based query optimizer: rule
// bodies are re-ordered (cheapest join first), selections are pushed
// past joins, and fully-reorderable min/max/count rules fuse their
// final join with the aggregate into a fold that never materializes a
// per-match tuple. Plans are made once, from catalog heuristics, so a
// plan is a function of its source: every node of a deployment runs
// the plan it was spawned with, and it never changes. Node.Install
// plans the rules it grafts the same way. No option selects the textual plan; a frozen rule (one
// that draws randomness) keeps its textual order and reports Order "-".
// Plans are queryable per rule via the sysPlan system table ("@N,
// Rule, Order, CostEst, Replans"; Replans is always 0, kept until the
// benchmark retires planner.replans). Planned and textual plans are
// tuple-equivalent, and the simulator is bit-identical at every shard
// count.
//
// # Observability
//
// Layered on the system tables is an operability subsystem: a
// catalogue of typed health conditions (Converged, Partitioned,
// ChurnStorm, RetryBudgetExhausted, BacklogSaturated,
// KVUnderReplicated) with status/reason/lastTransition semantics,
// judged by OverLog rules over sysNode, sysNet, sysTable and sysKV.
// A node grafts those rules when it first gains a sys* audience, and
// they derive its sysHealth rows on every refresh; a node without an
// audience reports every condition Unknown. The thresholds are
// constants of the rules, except the suspect window, the define
// sysSuspectWindow (10 s unless a program or Compile's defines set
// it). The conditions are queryable from OverLog via the sysHealth
// table, from Go via Handle.Conditions and Deployment.HealthSnapshot,
// and from the outside via the Prometheus /metrics endpoint a UDP
// deployment serves under WithMetrics (cmd/p2 -metrics), which gives
// every node an audience. Abandoned tuples carry a
// structured DropCause (RetryExhausted, SessionClosed, PeerDead,
// BacklogOverflow), aggregated per peer in sysNet and per cause in the
// p2_drops_total metric. HealthMonitorSource is a shipped OverLog rule
// library over these relations.
//
// # The network stack is dataflow too
//
// Following §3.4 of the paper, the transport is not a monolith but a
// chain of elements assembled per node: Serialize → Batch → CCTx →
// Retry → Frame on the send side, Deframe → Ack → Dedup → Deliver on
// receive. Tuples bound for one destination are coalesced into
// MTU-budget datagrams, acknowledgments are cumulative and piggybacked
// on reverse-path data frames (a receiver with nothing to send back
// acks alone after a constant 20 ms), and TransportConfig selects shorter
// chains (Unreliable drops the reliability elements, NoBatch the
// coalescing). The chain's live state — congestion window, RTO,
// backlog, batch fill — surfaces per peer in sysNet, so OverLog rules
// can observe and react to the stack itself. This chain is also the one
// place that stalls (a closed congestion window), so it alone carries a
// push/poke backpressure contract; a rule strand is a push-only chain
// run to completion per event.
//
// The subsystems live in internal packages: the OverLog
// lexer/parser (internal/overlog), the planner that compiles rules to
// dataflow strands (internal/planner), the elements a strand is a
// linear chain of — joins, selections, assignments, projections,
// aggregates (internal/dataflow) — soft-state tables (internal/table),
// the PEL expression VM (internal/pel), the transport element chain
// (internal/transport), and the network simulator (internal/simnet).
// This package re-exports what applications need.
package p2

import (
	"p2/internal/engine"
	"p2/internal/id"
	"p2/internal/introspect"
	"p2/internal/netif"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/val"
)

// Core data types, re-exported for application use.
type (
	// Value is P2's concrete data type: null, bool, int, float,
	// string, 160-bit identifier, or timestamp.
	Value = val.Value
	// Tuple is a named vector of Values — the unit of data transfer.
	Tuple = tuple.Tuple
	// ID is a 160-bit ring identifier.
	ID = id.ID
	// Program is a parsed OverLog specification.
	Program = overlog.Program
	// Plan is a compiled specification, instantiable on any node.
	Plan = planner.Plan
	// Node is a running P2 participant.
	Node = engine.Node
	// NodeOptions configures node behaviour (seed, transport tuning).
	NodeOptions = engine.Options
	// TransportConfig tunes the transport element chain: reliability,
	// congestion control, tuple batching, and ack policy. Set it via
	// NodeOptions.Transport; its Unreliable and NoBatch fields determine
	// which elements the node composes.
	TransportConfig = transport.Config
	// WatchEvent is delivered to Watch callbacks.
	WatchEvent = engine.WatchEvent
	// WatchFunc observes watch events (see Handle.Watch).
	WatchFunc = engine.WatchFunc
	// NetConfig describes the simulated network topology.
	NetConfig = simnet.Config
	// SysTableDef describes one system table's schema.
	SysTableDef = introspect.Def
	// TableStat, RuleStat, PlanStat, NetStat, and NodeStat are the
	// Go-level forms of the sys* system-table rows (see Node.TableStats
	// etc.).
	TableStat = introspect.TableStat
	RuleStat  = introspect.RuleStat
	PlanStat  = introspect.PlanStat
	NetStat   = introspect.NetStat
	NodeStat  = introspect.NodeStat
	// OptimizerConfig has no fields and WithOptimizer ignores it:
	// Compile always plans. Both names remain only for the benchmark
	// rig, which still calls them.
	OptimizerConfig = planner.OptimizerConfig
	// FaultConfig tunes the seeded datagram-level fault injector a UDP
	// deployment installs with WithFaults: drop, duplicate, reorder, and
	// corrupt rates, all drawn from one deterministic stream per node.
	FaultConfig = netif.FaultConfig
	// FaultStats counts what the fault injector did (see
	// Deployment.FaultStats).
	FaultStats = netif.FaultStats
)

// System table names, re-exported for Watch and Table lookups.
const (
	SysTable  = introspect.TableRelation
	SysRule   = introspect.RuleRelation
	SysPlan   = introspect.PlanRelation
	SysNet    = introspect.NetRelation
	SysNode   = introspect.NodeRelation
	SysHealth = introspect.HealthRelation
)

// SystemTables returns the schema catalog of the sys* system tables.
func SystemTables() []SysTableDef { return introspect.Defs() }

// DefaultTransportConfig returns the production-shaped transport
// tuning: the full reliable chain with batching and 20 ms delayed acks.
func DefaultTransportConfig() TransportConfig { return transport.DefaultConfig() }

// Watch directions, re-exported.
const (
	DirDerived  = engine.DirDerived
	DirSent     = engine.DirSent
	DirReceived = engine.DirReceived
	DirInserted = engine.DirInserted
	DirDeleted  = engine.DirDeleted
)

// Value constructors.

// Str wraps a string value.
func Str(s string) Value { return val.Str(s) }

// Int wraps an integer value.
func Int(v int64) Value { return val.Int(v) }

// Float wraps a float value.
func Float(v float64) Value { return val.Float(v) }

// Bool wraps a boolean value.
func Bool(b bool) Value { return val.Bool(b) }

// IDValue wraps a ring identifier.
func IDValue(x ID) Value { return val.MakeID(x) }

// Hash returns SHA-1(s) as a ring identifier, the way Chord derives
// node and key identifiers.
func Hash(s string) ID { return id.Hash(s) }

// NewTuple builds a tuple; by convention field 0 is the location.
func NewTuple(name string, fields ...Value) *Tuple { return tuple.New(name, fields...) }

// Shipped overlay specifications (see internal/overlays).
const (
	// ChordSource is the full Chord DHT from the paper's Appendix B.
	ChordSource = overlays.ChordSource
	// NaradaSource is the Narada mesh from Appendix A plus §2.3's
	// measurement rules.
	NaradaSource = overlays.NaradaSource
	// GossipSource is a push epidemic.
	GossipSource = overlays.GossipSource
	// LinkStateSource is distance-vector routing over declared links.
	LinkStateSource = overlays.LinkStateSource
	// PingPongSource is the two-node quickstart overlay.
	PingPongSource = overlays.PingPongSource
	// MeshMulticastSource floods messages over any spec that maintains
	// a neighbor table; compose it with NaradaSource via CompileMulti.
	MeshMulticastSource = overlays.MeshMulticastSource
)

// Parse parses OverLog source.
func Parse(src string) (*Program, error) { return overlog.Parse(src) }

// Compile parses and compiles OverLog source into an executable Plan.
// defines supplies or overrides symbolic constants.
func Compile(src string, defines map[string]Value) (*Plan, error) {
	prog, err := overlog.Parse(src)
	if err != nil {
		return nil, err
	}
	return planner.Compile(prog, defines)
}

// MustCompile is Compile for known-good sources; it panics on error.
func MustCompile(src string, defines map[string]Value) *Plan {
	plan, err := Compile(src, defines)
	if err != nil {
		panic(err)
	}
	return plan
}

// CompileMulti merges several OverLog specifications into one plan —
// the paper's multi-overlay sharing (§1): tables declared identically
// by more than one spec are shared, so separately written overlays can
// reuse each other's state (e.g. multicast flooding over the Narada
// mesh's neighbor table).
func CompileMulti(defines map[string]Value, srcs ...string) (*Plan, error) {
	progs := make([]*Program, 0, len(srcs))
	for _, src := range srcs {
		p, err := overlog.Parse(src)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	merged, err := overlog.Merge(progs...)
	if err != nil {
		return nil, err
	}
	return planner.Compile(merged, defines)
}

// Deployments — the runtime-agnostic execution surface — live in
// deployment.go: NewDeployment, Runtime (Simulated, UDP), the
// functional options (WithSeed, WithShards, WithTopology,
// WithTransport, WithNodeDefaults), Deployment, and
// Handle.
