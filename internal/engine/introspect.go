package engine

// This file is the engine half of the introspection subsystem: it feeds
// the sys* system tables from the node's runtime counters and grafts
// OverLog rules compiled at runtime into the live dataflow. Together
// they make the runtime queryable from inside the language — the
// paper's "watch queries are just more OverLog" stance (§3.5, §7).

import (
	"fmt"
	"slices"
	"sort"

	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/kvs"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/table"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/val"
)

// rowCache holds one system relation's rows between refreshes: per key,
// the counters the row was last rendered from and its tuple. The maps
// allocate on first use; most nodes of a large deployment never refresh.
type rowCache[K, S comparable] struct {
	last map[K]S
	tup  map[K]*tuple.Tuple
}

// row returns k's tuple at addr for counters s: the cached one when s
// is unchanged — the table renews its TTL, produces no delta, and the
// refresh allocates nothing for the row — else render's, now cached.
func (c *rowCache[K, S]) row(addr val.Value, k K, s S, render func(val.Value, S) *tuple.Tuple) *tuple.Tuple {
	if c.tup == nil {
		c.last, c.tup = make(map[K]S), make(map[K]*tuple.Tuple)
	}
	if t := c.tup[k]; t != nil && c.last[k] == s {
		return t
	}
	t := render(addr, s)
	c.last[k], c.tup[k] = s, t
	return t
}

// keep forgets every row whose key live rejects.
func (c *rowCache[K, S]) keep(live func(K) bool) {
	for k := range c.tup {
		if !live(k) {
			delete(c.tup, k)
			delete(c.last, k)
		}
	}
}

// sysRefresh is the refresh's state between passes: one rowCache per
// system relation but sysNode, whose uptime always moves, and the
// buffers the live counters are read into. On a mostly idle overlay
// the caches make the once-a-second snapshot a near-free TTL renewal.
type sysRefresh struct {
	tableNames []string // application relations, sorted, maintained at creation
	tables     rowCache[string, introspect.TableStat]
	rules      rowCache[string, introspect.RuleStat]
	plans      rowCache[string, introspect.PlanStat]
	nets       rowCache[string, introspect.NetStat]
	conds      rowCache[health.ConditionType, introspect.HealthStat]
	kv         rowCache[struct{}, introspect.KVStat] // the single sysKV row

	netBuf []transport.DestStats // per-peer stats: sysNet rows and health.Sample.Peers
	kvStat introspect.KVStat     // health.Sample.KV points here
}

// registerTable records an application relation for the sysTable
// refresh walk, keeping the name list sorted (the deterministic order
// Snapshot uses).
func (sr *sysRefresh) registerTable(name string) {
	if introspect.IsReserved(name) {
		return
	}
	i := sort.SearchStrings(sr.tableNames, name)
	if i < len(sr.tableNames) && sr.tableNames[i] == name {
		return
	}
	sr.tableNames = slices.Insert(sr.tableNames, i, name)
}

// introspectInterval resolves the option's default: 1 s, negative
// disables.
func (n *Node) introspectInterval() float64 {
	switch {
	case n.opts.IntrospectInterval < 0:
		return 0
	case n.opts.IntrospectInterval == 0:
		return 1.0
	}
	return n.opts.IntrospectInterval
}

// planReadsSys reports whether any part of the plan consumes a sys*
// relation: a rule triggered by one, a join probing one, a
// table aggregate over one, or a watch() directive tapping one.
func planReadsSys(p *planner.Plan) bool {
	for _, r := range p.Rules {
		if introspect.IsReserved(r.Trigger.Name) {
			return true
		}
		for _, op := range r.Ops {
			if o, ok := op.(*planner.OpJoin); ok && introspect.IsReserved(o.Table) {
				return true
			}
		}
	}
	for _, ta := range p.TableAggs {
		if introspect.IsReserved(ta.Table) {
			return true
		}
	}
	for _, w := range p.Watches {
		if introspect.IsReserved(w) {
			return true
		}
	}
	return false
}

// scheduleIntrospect arms the periodic introspection tick if anyone
// wants it and it is not already armed. Introspection is demand-driven:
// the tick exists only when the sys* rows have an audience
// (n.sysConsumer — an explicit IntrospectInterval, a plan reading a
// system relation, a Go-level Watch on one). On a 10k-node deployment
// where no node monitors itself, the once-a-second snapshot — the
// engine's single largest allocator — never runs, and no timer waits
// for it. Called at Start, and again whenever a consumer can appear
// later (Install, Watch).
func (n *Node) scheduleIntrospect() {
	iv := n.introspectInterval()
	if iv <= 0 || n.stopped || n.introTimer != nil || !n.sysConsumer {
		return
	}
	n.armIntrospect(iv)
}

func (n *Node) armIntrospect(iv float64) {
	n.introTimer = n.loop.After(iv, func() {
		if n.stopped {
			return
		}
		n.RefreshSystemTables()
		n.armIntrospect(iv)
	})
}

// RefreshSystemTables snapshots the node's counters into the sys*
// tables immediately, through the normal local-delivery path: rows
// whose values changed produce deltas that trigger any rules listening
// on the system tables, exactly as application-table deltas would. The
// engine calls it on a timer; tests and tools may call it directly.
//
// The refresh is incremental: rows are delivered in a deterministic
// order (sysNode, sysTable, sysRule, sysPlan, sysNet, sysKV, then
// sysHealth, each walked in a fixed order), but a row whose counters
// match the previous refresh reuses the cached tuple, so steady-state
// refreshes only build tuples for rows that actually changed.
func (n *Node) RefreshSystemTables() {
	sr := &n.sysref
	if !n.sysConsumer {
		// A direct call may precede any audience: give it the system
		// tables to fill, without arming the refresh for a later one.
		n.sysConsumer = true
		n.catchUp()
		n.sysConsumer = false
	}
	addr := val.Str(n.addr)

	ns := n.NodeStat() // uptime always moves; sysNode rebuilds every pass
	n.deliverLocal(introspect.NodeTuple(addr, ns), DirDerived)

	for _, name := range sr.tableNames {
		if tb := n.tables[name]; tb != nil {
			n.deliverLocal(sr.tables.row(addr, name, tableStat(name, tb), introspect.TableTuple), DirDerived)
		}
	}
	for i, fires := range n.fires {
		rs := introspect.RuleStat{ID: n.plan.Rules[i].ID, Fires: fires}
		n.deliverLocal(sr.rules.row(addr, rs.ID, rs, introspect.RuleTuple), DirDerived)
	}
	for j, fires := range n.aggFires {
		rs := introspect.RuleStat{ID: n.plan.TableAggs[j].ID, Fires: fires}
		n.deliverLocal(sr.rules.row(addr, rs.ID, rs, introspect.RuleTuple), DirDerived)
	}
	// sysPlan reports the plan of every rule strand; a frozen rule, which
	// the planner leaves in textual order, reports order "-", cost 0. A
	// plan is fixed when its rule is compiled, so each row renders once
	// and every refresh only renews its TTL.
	for _, r := range n.plan.Rules[:len(n.fires)] {
		n.deliverLocal(sr.plans.row(addr, r.ID, planStat(r), introspect.PlanTuple), DirDerived)
	}

	// The health sample holds the rows sysNet and sysKV render from:
	// sample.Peers is sr.netBuf, sample.KV points at sr.kvStat.
	sample := n.healthSample()
	for i := range sample.Peers {
		d := &sample.Peers[i]
		n.deliverLocal(sr.nets.row(addr, d.Addr, netStat(d), introspect.NetTuple), DirDerived)
	}
	// The transport's flow janitor reclaims idle peers; drop their
	// cached rows too, or the cache regrows the O(peers ever contacted)
	// footprint the janitor exists to bound. The rows themselves fade
	// by TTL once no refresh renews them.
	if len(sr.nets.tup) > len(sr.netBuf) {
		sr.nets.keep(func(a string) bool {
			return slices.ContainsFunc(sr.netBuf, func(d transport.DestStats) bool { return d.Addr == a })
		})
	}
	if sample.KV != nil {
		n.deliverLocal(sr.kv.row(addr, struct{}{}, *sample.KV, introspect.KVTuple), DirDerived)
	}

	// Conditions evaluate from the same counters that fed the rows
	// above, so sysHealth is consistent with sysNet/sysTable within one
	// refresh.
	for _, c := range n.health.Eval(sample) {
		hs := introspect.HealthStat{
			Type: string(c.Type), Status: string(c.Status),
			Reason: c.Reason, SinceS: c.LastTransition,
		}
		n.deliverLocal(sr.conds.row(addr, c.Type, hs, introspect.HealthTuple), DirDerived)
	}
}

// Conditions returns the node's most recently evaluated health
// catalogue (a copy, in canonical order). On a node whose periodic
// snapshot runs (a sys* consumer exists) this reflects the last
// refresh; before the first one every condition is Unknown. On a node
// with no sys* audience the conditions are evaluated on the spot from
// the live counters, rendering no rows, so HealthSnapshot and the
// metrics exporter see current state without paying for the snapshot.
// With introspection disabled outright (negative interval) conditions
// stay Unknown. Runs on the node's loop (Handle.Do or between Runs).
func (n *Node) Conditions() []health.Condition {
	if n.health == nil {
		return nil
	}
	if !n.sysConsumer && n.started && !n.stopped && n.introspectInterval() > 0 {
		n.health.Eval(n.healthSample())
	}
	return slices.Clone(n.health.Conditions())
}

// healthSample builds the health evaluator's input from the live
// counters: application-table churn, the per-peer transport stats (in
// sr.netBuf) and the key-value service's sysKV row (in sr.kvStat).
func (n *Node) healthSample() health.Sample {
	sr := &n.sysref
	sample := health.Sample{Now: n.loop.Now()}
	for _, name := range sr.tableNames {
		if tb := n.tables[name]; tb != nil {
			st := tb.Stats()
			sample.Churn += st.Inserts + st.Deletes
		}
	}
	if n.trans != nil {
		sample.QueueCap = n.trans.Config().QueueCap
		sr.netBuf = n.trans.PerDestInto(sr.netBuf)
		sample.Peers = sr.netBuf
	}
	var ok bool
	if sr.kvStat, ok = n.KVStats(); ok {
		sample.KV = &sr.kvStat
	}
	return sample
}

// The accessors below expose the counters the refresh renders; they
// double as the Go-level introspection API.

// NodeStat reports whole-node liveness: uptime, strand executions, and
// the scheduler queue length (shared with other nodes when several sim
// nodes run one loop).
func (n *Node) NodeStat() introspect.NodeStat {
	return introspect.NodeStat{
		UptimeS: n.loop.Now() - n.startTime,
		Events:  n.stats.RulesFired,
		Queue:   n.loop.Pending(),
	}
}

// tableStat maps one table's counters into its sysTable row — the
// single mapping shared by TableStats and the incremental refresh.
func tableStat(name string, tb *table.Table) introspect.TableStat {
	st := tb.Stats()
	return introspect.TableStat{
		Name: name, Tuples: tb.Len(),
		Inserts: st.Inserts, Deletes: st.Deletes, Refreshes: st.Refreshes,
	}
}

// netStat maps one peer's transport accounting into its sysNet row —
// the single mapping shared by NetStats and the incremental refresh.
func netStat(d *transport.DestStats) introspect.NetStat {
	return introspect.NetStat{
		Dest: d.Addr, Sent: d.Sent, Recvd: d.Recvd, Bytes: d.Bytes, Retries: d.Retries,
		Cwnd: d.Cwnd, RTO: d.RTO, Backlog: d.Backlog, BatchFill: d.BatchFill,
		Drops: d.Drops,
	}
}

// KVStats builds the key-value service's sysKV row from the node's
// live tables and strand counters; ok is false on nodes not running
// the kvs rules (no kvStore table). Runs on the node's loop.
func (n *Node) KVStats() (introspect.KVStat, bool) {
	store := n.tables[kvs.StoreTable]
	if store == nil {
		return introspect.KVStat{}, false
	}
	st := introspect.KVStat{Keys: store.Len(), Expiries: store.Stats().Deletes}
	if pt := n.tables[kvs.ParamTable]; pt != nil {
		for _, row := range pt.Scan() {
			st.Replicas = row.Field(1).AsInt()
			st.Quorum = row.Field(2).AsInt()
		}
	}
	if succ := n.tables[kvs.SuccTable]; succ != nil {
		seen := make(map[string]bool, succ.Len())
		for _, row := range succ.Scan() {
			if si := row.Field(2).AsStr(); si != n.addr {
				seen[si] = true
			}
		}
		st.Succs = len(seen)
	}
	if pp := n.tables[kvs.PutPendingTable]; pp != nil {
		st.Pending += pp.Len()
	}
	if gp := n.tables[kvs.GetPendingTable]; gp != nil {
		st.Pending += gp.Len()
	}
	for i, fires := range n.fires {
		if kvs.RepairRules[n.plan.Rules[i].ID] {
			st.Repairs += fires
		}
	}
	return st, true
}

// TableStats reports per-relation counters for every table the node
// maintains, system tables included, sorted by name.
func (n *Node) TableStats() []introspect.TableStat {
	out := make([]introspect.TableStat, 0, len(n.tables))
	for name, tb := range n.tables {
		out = append(out, tableStat(name, tb))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RuleStats reports per-rule fire counters in build order: strand
// executions for event rules, head emissions for continuous table
// aggregates.
func (n *Node) RuleStats() []introspect.RuleStat {
	out := make([]introspect.RuleStat, 0, len(n.fires)+len(n.aggFires))
	for i, fires := range n.fires {
		out = append(out, introspect.RuleStat{ID: n.plan.Rules[i].ID, Fires: fires})
	}
	for j, fires := range n.aggFires {
		out = append(out, introspect.RuleStat{ID: n.plan.TableAggs[j].ID, Fires: fires})
	}
	return out
}

// PlanStats reports the planner's plan per rule strand, in build order.
// A frozen rule reports its textual plan: order "-", cost 0.
func (n *Node) PlanStats() []introspect.PlanStat {
	out := make([]introspect.PlanStat, 0, len(n.fires))
	for _, r := range n.plan.Rules[:len(n.fires)] {
		out = append(out, planStat(r))
	}
	return out
}

// planStat maps one rule's plan into its sysPlan row — the single
// mapping shared by PlanStats and the incremental refresh. Replans
// stays 0: plans never change after they are made.
func planStat(r *planner.Rule) introspect.PlanStat {
	return introspect.PlanStat{Rule: r.ID, Order: r.OrderString(), CostEst: r.CostEst}
}

// NetStats reports per-peer transport accounting and the live state of
// the transport element chain (congestion window, RTO, backlog, batch
// fill), sorted by address.
func (n *Node) NetStats() []introspect.NetStat {
	if n.trans == nil {
		return nil
	}
	per := n.trans.PerDest()
	out := make([]introspect.NetStat, len(per))
	for i := range per {
		out[i] = netStat(&per[i])
	}
	return out
}

// Install compiles OverLog source and grafts it into the running
// dataflow: new tables are created, new rules start executing
// immediately (periodic rules begin ticking, delta rules see future
// deltas, stream rules hear future events), facts are injected, and
// watch() directives attach to the node's trace writer. Installed
// rules may reference any relation the node already maintains —
// including the sys* system tables — so monitoring and debugging
// queries are ordinary OverLog added to a live node. The graft is the
// node catching up to the extended plan, as Start catches up to the
// start plan, so a node that installed its way to a plan runs it as one
// that started with it.
//
// On error nothing is installed. Call only from the node's event loop
// (in a simulation, between Run calls; on a UDP node, via Do or
// UDPNode.Install).
func (n *Node) Install(src string) error {
	if !n.started || n.stopped {
		return fmt.Errorf("engine: node %s: install on a node that is not running", n.addr)
	}
	prog, err := overlog.Parse(src)
	if err != nil {
		return fmt.Errorf("engine: install on %s: %w", n.addr, err)
	}
	plan, err := planner.Extend(n.plan, prog, nil)
	if err != nil {
		return fmt.Errorf("engine: install on %s: %w", n.addr, err)
	}
	// Commit point. Extend built the new rules' elements on plan; the
	// base plan, and every other node running it, is untouched.
	facts := len(n.plan.Facts)
	n.plan = plan
	n.catchUp()
	for _, f := range plan.Facts[facts:] {
		t := tupleFromFact(f, n.addr)
		n.loop.Defer(func() {
			if !n.stopped {
				n.deliverLocal(t, DirDerived)
			}
		})
	}
	// The graft may be the node's first sys* consumer: arm the refresh,
	// so the new rules see rows from the next tick on.
	n.scheduleIntrospect()
	return nil
}
