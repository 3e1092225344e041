// Package introspect materializes the P2 runtime's own state as
// soft-state system tables, the paper's "everything is a relation"
// stance applied to the runtime itself (§3.5, §7 "On-line distributed
// debugging"): dataflow counters become ordinary tuples, so monitoring
// and debugging queries are just more OverLog, installable while the
// node runs.
//
// Seven system relations exist on every node, refreshed periodically
// on the node's event loop:
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
// sysKV only carries data on nodes running the key-value service
// (internal/kvs); elsewhere the relation exists but stays empty.
//
// The "sys" relation-name prefix is reserved: user programs may join,
// aggregate, and watch these tables but cannot materialize their own
// sys* relations. sysTable reports the node's application relations
// only — the system tables do not report on themselves, which keeps
// counter feedback loops out of idle nodes.
//
// The planner registers these schemas in every Plan (so rules joining
// them classify as stream×table equijoins); the engine instantiates
// them per node and feeds them from its own counters — the split keeps
// this package free of engine dependencies and cycle-free. The engine's
// refresh keeps one row cache for every relation it renders: a row
// whose counters did not change re-delivers the tuple rendered last
// time. sysHealth is the exception: no counter renders it. The health
// condition library (internal/health), rules over sysNode, sysNet,
// sysTable and sysKV that the engine grafts onto a node with a sys*
// audience, derives its rows from those same rows on every refresh.
package introspect

import (
	"strings"

	"p2/internal/tuple"
	"p2/internal/val"
)

// System relation names.
const (
	TableRelation  = "sysTable"
	RuleRelation   = "sysRule"
	PlanRelation   = "sysPlan"
	NetRelation    = "sysNet"
	NodeRelation   = "sysNode"
	HealthRelation = "sysHealth"
	KVRelation     = "sysKV"
)

// ReservedPrefix is the relation-name prefix claimed by the runtime.
const ReservedPrefix = "sys"

// IsReserved reports whether a relation name lives in the system
// namespace and therefore cannot be declared by user programs.
func IsReserved(name string) bool { return strings.HasPrefix(name, ReservedPrefix) }

// Def describes one system table's schema: its name, arity, and
// 0-based primary key positions. Lifetimes are chosen by the engine
// from its refresh interval, keeping rows soft state that fades when
// refreshes stop.
type Def struct {
	Name  string
	Arity int
	Keys  []int
	Doc   string
}

// Defs returns the system-table catalog in deterministic order.
func Defs() []Def {
	return []Def{
		{Name: TableRelation, Arity: 6, Keys: []int{0, 1},
			Doc: "sysTable(@N, Name, Tuples, Inserts, Deletes, Refreshes): per-relation row counts and cumulative delta counters"},
		{Name: RuleRelation, Arity: 3, Keys: []int{0, 1},
			Doc: "sysRule(@N, Rule, Fires): cumulative strand executions per compiled rule"},
		{Name: PlanRelation, Arity: 5, Keys: []int{0, 1},
			Doc: "sysPlan(@N, Rule, Order, CostEst, Replans): the query optimizer's plan per rule, fixed when the rule was compiled — body term order (\"-\" for a frozen rule, left in textual order; \" distinct[cols]\" appended when a fused min/max evaluates one match per run of rows equal on those table columns), estimated cost, and Replans, always 0 (kept until the benchmark retires planner.replans)"},
		{Name: NetRelation, Arity: 14, Keys: []int{0, 1},
			Doc: "sysNet(@N, Dest, Sent, Recvd, Bytes, Retries, Cwnd, RTO, Backlog, BatchFill, DropsRetry, DropsClosed, DropsDead, DropsOverflow): per-peer transport accounting, live congestion state, and classified drop counters"},
		{Name: NodeRelation, Arity: 4, Keys: []int{0},
			Doc: "sysNode(@N, UptimeS, EventsProcessed, QueueLen): whole-node liveness"},
		{Name: HealthRelation, Arity: 5, Keys: []int{0, 1},
			Doc: "sysHealth(@N, Type, Status, Reason, SinceS): health conditions, derived by the condition library's rules — Status is True/False/Unknown, SinceS the node time of the last status transition"},
		{Name: KVRelation, Arity: 8, Keys: []int{0},
			Doc: "sysKV(@N, Keys, Replicas, Quorum, Succs, Repairs, Expiries, Pending): key-value service state — keys held, configured replica factor and write quorum, live successor count, cumulative repair-rule fires and lease expiries, in-flight client ops"},
	}
}

// TableStat is one relation's counters, as the engine reports them.
type TableStat struct {
	Name      string
	Tuples    int   // live rows right now
	Inserts   int64 // delta-producing stores since creation
	Deletes   int64 // removals: explicit delete, FIFO eviction, TTL expiry
	Refreshes int64 // identical re-insertions that only renewed a TTL
}

// RuleStat is one rule's execution counter.
type RuleStat struct {
	ID    string
	Fires int64
}

// PlanStat is one rule's optimizer plan, fixed when the rule was
// compiled: the body term order it executes with ("-" for a frozen rule
// left in textual order; a fused min/max that passes over matches equal on the
// table columns its programs read appends " distinct[cols]") and the
// cost the optimizer estimated for that order. Replans is always 0;
// it is kept until the benchmark retires planner.replans.
type PlanStat struct {
	Rule    string
	Order   string
	CostEst float64
	Replans int64
}

// NetStat is per-peer transport accounting, merged across send and
// receive state, plus the live control state of the transport's element
// chain toward the peer — so OverLog rules can observe congestion
// windows, retransmission timeouts, backlog pressure, and batching
// efficiency and react to them.
type NetStat struct {
	Dest      string
	Sent      int64   // tuples transmitted (including retransmissions)
	Recvd     int64   // tuples delivered upward (post-dedup)
	Bytes     int64   // data bytes put on the wire toward Dest
	Retries   int64   // retransmissions toward Dest
	Cwnd      float64 // current congestion window, datagrams
	RTO       float64 // current retransmission timeout, seconds
	Backlog   int     // tuples queued behind the congestion window
	BatchFill float64 // mean tuples per data datagram toward Dest

	// Drops counts tuples abandoned toward Dest, indexed by
	// transport.DropCause (RetryExhausted, SessionClosed, PeerDead,
	// BacklogOverflow) — a plain array so this package stays free of a
	// transport dependency; the engine asserts the lengths agree.
	Drops [4]int64
}

// NodeStat is whole-node liveness.
type NodeStat struct {
	UptimeS float64
	Events  int64 // strand executions processed since start
	Queue   int   // pending events on the node's scheduler
}

// KVStat is the key-value service's per-node state, populated only on
// nodes running the kvs rules (the engine detects the kvStore table).
type KVStat struct {
	Keys     int   // rows in kvStore — keys this node currently holds
	Replicas int64 // configured replica factor (owner + successor list)
	Quorum   int64 // write quorum a PUT waits for
	Succs    int   // live distinct successors — the reachable replica fan-out
	Repairs  int64 // cumulative repair-rule fires: one per replica read-repair pushed to, per anti-entropy round, per pull answered
	Expiries int64 // cumulative kvStore lease expiries and evictions
	Pending  int   // in-flight client ops parked in the pending tables
}

// The render helpers below are the single source of truth for the field
// order and arity of each system relation the engine renders (all but
// sysHealth, whose rows the condition rules derive). The engine's
// incremental refresh passes them to its row cache, which re-renders a
// row only when its counters change — a schema change edits exactly one
// function per relation.

// NodeTuple renders one sysNode row.
func NodeTuple(addr val.Value, ns NodeStat) *tuple.Tuple {
	return tuple.New(NodeRelation,
		addr, val.Float(ns.UptimeS), val.Int(ns.Events), val.Int(int64(ns.Queue)))
}

// TableTuple renders one sysTable row.
func TableTuple(addr val.Value, ts TableStat) *tuple.Tuple {
	return tuple.New(TableRelation,
		addr, val.Str(ts.Name), val.Int(int64(ts.Tuples)),
		val.Int(ts.Inserts), val.Int(ts.Deletes), val.Int(ts.Refreshes))
}

// RuleTuple renders one sysRule row.
func RuleTuple(addr val.Value, rs RuleStat) *tuple.Tuple {
	return tuple.New(RuleRelation, addr, val.Str(rs.ID), val.Int(rs.Fires))
}

// PlanTuple renders one sysPlan row.
func PlanTuple(addr val.Value, ps PlanStat) *tuple.Tuple {
	return tuple.New(PlanRelation,
		addr, val.Str(ps.Rule), val.Str(ps.Order),
		val.Float(ps.CostEst), val.Int(ps.Replans))
}

// NetTuple renders one sysNet row.
func NetTuple(addr val.Value, st NetStat) *tuple.Tuple {
	return tuple.New(NetRelation,
		addr, val.Str(st.Dest), val.Int(st.Sent), val.Int(st.Recvd),
		val.Int(st.Bytes), val.Int(st.Retries), val.Float(st.Cwnd),
		val.Float(st.RTO), val.Int(int64(st.Backlog)), val.Float(st.BatchFill),
		val.Int(st.Drops[0]), val.Int(st.Drops[1]),
		val.Int(st.Drops[2]), val.Int(st.Drops[3]))
}

// KVTuple renders one sysKV row.
func KVTuple(addr val.Value, ks KVStat) *tuple.Tuple {
	return tuple.New(KVRelation,
		addr, val.Int(int64(ks.Keys)), val.Int(ks.Replicas), val.Int(ks.Quorum),
		val.Int(int64(ks.Succs)), val.Int(ks.Repairs), val.Int(ks.Expiries),
		val.Int(int64(ks.Pending)))
}
