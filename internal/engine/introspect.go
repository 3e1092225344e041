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

// sysRefresh caches the previous refresh's counter values and rendered
// tuples per system-table row. A refresh whose counters are unchanged
// re-delivers the cached tuple pointer: the table sees an identical
// tuple, renews its TTL, and produces no delta — and the refresh
// allocates nothing for it. On a mostly idle overlay that turns the
// once-a-second snapshot from the node's largest allocator into a
// near-free TTL renewal pass.
type sysRefresh struct {
	tableNames []string // application relations, sorted, maintained at creation
	tableLast  map[string]introspect.TableStat
	tableTup   map[string]*tuple.Tuple
	ruleLast   map[string]int64
	ruleTup    map[string]*tuple.Tuple
	planTup    map[string]*tuple.Tuple // a rule's plan never changes
	netLast    map[string]introspect.NetStat
	netTup     map[string]*tuple.Tuple
	netBuf     []transport.DestStats

	healthLast  map[health.ConditionType]introspect.HealthStat
	healthTup   map[health.ConditionType]*tuple.Tuple
	healthPeers []health.PeerSample // reused sample buffer

	kvLast introspect.KVStat
	kvTup  *tuple.Tuple // single sysKV row; nil until first KV refresh
}

func newSysRefresh() *sysRefresh {
	// Only tableNames is maintained unconditionally (registerTable at
	// table creation; healthSample's churn walk reads it). The row
	// caches allocate on the first actual refresh — most nodes of a
	// large deployment never run one.
	return &sysRefresh{}
}

// ensureCaches allocates the per-row caches on the first refresh.
func (sr *sysRefresh) ensureCaches() {
	if sr.tableLast != nil {
		return
	}
	sr.tableLast = make(map[string]introspect.TableStat)
	sr.tableTup = make(map[string]*tuple.Tuple)
	sr.ruleLast = make(map[string]int64)
	sr.ruleTup = make(map[string]*tuple.Tuple)
	sr.planTup = make(map[string]*tuple.Tuple)
	sr.netLast = make(map[string]introspect.NetStat)
	sr.netTup = make(map[string]*tuple.Tuple)
	sr.healthLast = make(map[health.ConditionType]introspect.HealthStat)
	sr.healthTup = make(map[health.ConditionType]*tuple.Tuple)
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

// ensureSysTables materializes any system tables the node skipped at
// Start (demand-driven: no sys* audience, no tables). Called when a
// consumer appears later — a Watch on a sys* relation or an Install
// whose rules read one — before anything probes or fills them. Newly
// created tables join the sorted sweep order like any other.
func (n *Node) ensureSysTables() {
	added := false
	for name, ts := range n.plan.Tables {
		if ts.System && n.tables[name] == nil {
			n.tables[name] = n.newTable(ts)
			n.tableOrder = append(n.tableOrder, name)
			added = true
		}
	}
	if added {
		sort.Strings(n.tableOrder)
	}
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
// order (sysNode, then sysTable / sysRule / sysNet, each sorted by its
// key), but a row whose counters match the previous refresh reuses the
// cached tuple, so steady-state refreshes only build tuples for rows
// that actually changed.
func (n *Node) RefreshSystemTables() {
	sr := n.sysref
	sr.ensureCaches()
	n.ensureSysTables() // direct calls may precede any consumer
	addr := val.Str(n.addr)

	ns := n.NodeStat() // uptime always moves; sysNode rebuilds every pass
	n.deliverLocal(introspect.NodeTuple(addr, ns), DirDerived)

	for _, name := range sr.tableNames {
		tb := n.tables[name]
		if tb == nil {
			continue
		}
		ts := tableStat(name, tb)
		t := sr.tableTup[name]
		if t == nil || ts != sr.tableLast[name] {
			t = introspect.TableTuple(addr, ts)
			sr.tableTup[name], sr.tableLast[name] = t, ts
		}
		n.deliverLocal(t, DirDerived)
	}

	emitRule := func(id string, fires int64) {
		t := sr.ruleTup[id]
		if t == nil || fires != sr.ruleLast[id] {
			t = introspect.RuleTuple(addr, introspect.RuleStat{ID: id, Fires: fires})
			sr.ruleTup[id], sr.ruleLast[id] = t, fires
		}
		n.deliverLocal(t, DirDerived)
	}
	for i, fires := range n.fires {
		emitRule(n.plan.Rules[i].ID, fires)
	}
	for j, fires := range n.aggFires {
		emitRule(n.plan.TableAggs[j].ID, fires)
	}

	// sysPlan reports the plan of every rule strand; a frozen rule, which
	// the planner leaves in textual order, reports order "-", cost 0. A
	// plan is fixed when its rule is compiled, so each row renders once
	// and every refresh only renews its TTL.
	for _, r := range n.plan.Rules[:len(n.fires)] {
		t := sr.planTup[r.ID]
		if t == nil {
			t = introspect.PlanTuple(addr, planStat(r))
			sr.planTup[r.ID] = t
		}
		n.deliverLocal(t, DirDerived)
	}

	// The health sample and the sysNet and sysKV rows read the same
	// counters: healthSample leaves the per-peer stats in sr.netBuf.
	sample, ks, kvOK := n.healthSample()
	if n.trans != nil {
		for i := range sr.netBuf {
			d := &sr.netBuf[i]
			st := netStat(d)
			t := sr.netTup[d.Addr]
			if t == nil || st != sr.netLast[d.Addr] {
				t = introspect.NetTuple(addr, st)
				sr.netTup[d.Addr], sr.netLast[d.Addr] = t, st
			}
			n.deliverLocal(t, DirDerived)
		}
		// The transport's flow janitor reclaims idle peers; drop their
		// cached row renderings too, or the caches regrow the O(peers
		// ever contacted) footprint the janitor exists to bound. The
		// rows themselves fade by TTL once no refresh renews them.
		if len(sr.netTup) > len(sr.netBuf) {
			for a := range sr.netTup {
				i := sort.Search(len(sr.netBuf), func(i int) bool { return sr.netBuf[i].Addr >= a })
				if i >= len(sr.netBuf) || sr.netBuf[i].Addr != a {
					delete(sr.netTup, a)
					delete(sr.netLast, a)
				}
			}
		}
	}

	// The key-value service's row, on nodes running it: the counters
	// KVUnderReplicated judges in the health sample.
	if kvOK {
		t := sr.kvTup
		if t == nil || ks != sr.kvLast {
			t = introspect.KVTuple(addr, ks)
			sr.kvTup, sr.kvLast = t, ks
		}
		n.deliverLocal(t, DirDerived)
	}

	// Conditions evaluate from the same counters that fed the rows
	// above, so sysHealth is consistent with sysNet/sysTable within one
	// refresh. Rows cache like the others: an unchanged condition
	// re-delivers its tuple and only renews the TTL.
	for _, c := range n.health.Eval(sample) {
		hs := introspect.HealthStat{
			Type: string(c.Type), Status: string(c.Status),
			Reason: c.Reason, SinceS: c.LastTransition,
		}
		t := sr.healthTup[c.Type]
		if t == nil || hs != sr.healthLast[c.Type] {
			t = introspect.HealthTuple(addr, hs)
			sr.healthTup[c.Type], sr.healthLast[c.Type] = t, hs
		}
		n.deliverLocal(t, DirDerived)
	}
}

// Conditions returns the node's most recently evaluated health
// catalogue (a copy, in canonical order). On a node whose periodic
// snapshot runs (a sys* consumer exists) this reflects the last
// refresh; before the first one every condition is Unknown. On a node
// with no sys* audience the conditions are evaluated on the spot from
// the live counters, so HealthSnapshot and the metrics exporter see
// current state without paying for the per-second snapshot. With
// introspection disabled outright (negative interval) conditions stay
// Unknown, as before.
func (n *Node) Conditions() []health.Condition {
	if n.health == nil {
		return nil
	}
	if !n.sysConsumer && n.started && !n.stopped && n.introspectInterval() > 0 {
		n.evalHealthNow()
	}
	return slices.Clone(n.health.Conditions())
}

// evalHealthNow feeds the health evaluator the sample a refresh would
// build, without rendering or delivering any sys* rows. It runs on the
// node's loop (Conditions is reached via Handle.Do or between Run
// calls).
func (n *Node) evalHealthNow() {
	sample, _, _ := n.healthSample()
	n.health.Eval(sample)
}

// healthSample builds the health evaluator's input from the live
// counters: cumulative application-table churn, per-peer backlog and
// drops, and the key-value service's replication state. The per-peer
// transport stats stay in the refresh cache's netBuf for the sysNet
// rows; ks is the sysKV row the KV sample comes from, valid when kvOK.
func (n *Node) healthSample() (sample health.Sample, ks introspect.KVStat, kvOK bool) {
	sr := n.sysref
	sample.Now = n.loop.Now()
	for _, name := range sr.tableNames {
		if tb := n.tables[name]; tb != nil {
			st := tb.Stats()
			sample.Churn += st.Inserts + st.Deletes
		}
	}
	if n.trans != nil {
		sample.QueueCap = n.trans.Config().QueueCap
		sr.netBuf = n.trans.PerDestInto(sr.netBuf)
		sr.healthPeers = sr.healthPeers[:0]
		for i := range sr.netBuf {
			d := &sr.netBuf[i]
			sr.healthPeers = append(sr.healthPeers, health.PeerSample{
				Addr: d.Addr, Backlog: d.Backlog, Drops: d.Drops,
			})
		}
		sample.Peers = sr.healthPeers
	}
	if ks, kvOK = n.KVStats(); kvOK {
		sample.KV = &health.KVSample{
			Keys: ks.Keys, Replicas: ks.Replicas, Quorum: ks.Quorum, Succs: ks.Succs,
		}
	}
	return sample, ks, kvOK
}

// The Source implementation below exposes the counters the snapshot is
// built from; they double as the Go-level introspection API.

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
// queries are ordinary OverLog added to a live node.
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
	newPlan, delta, err := planner.Extend(n.plan, prog, nil)
	if err != nil {
		return fmt.Errorf("engine: install on %s: %w", n.addr, err)
	}
	// Commit point: instantiate tables first so the node can index them
	// for the new strands, then take on rules and aggregates, then
	// inject facts. Extend built the new rules' elements on newPlan;
	// the base plan, and every other node running it, is untouched.
	n.plan = newPlan
	for _, ts := range delta.Tables {
		n.tables[ts.Name] = n.newTable(ts)
		n.tableOrder = append(n.tableOrder, ts.Name)
	}
	// Keep the sweep order sorted so a node that installed its way to a
	// plan sweeps identically to one that started with it.
	sort.Strings(n.tableOrder)
	// Monitoring grafts are the usual first sys* consumer: materialize
	// the system tables before indexing so joins against them have a
	// table to probe.
	if !n.sysConsumer && planReadsSys(n.plan) {
		n.sysConsumer = true
		n.ensureSysTables()
	}
	n.ensureIndexes()
	for _, r := range delta.Rules {
		n.addStrand(r)
	}
	for _, ta := range delta.TableAggs {
		n.addTableAgg(ta)
	}
	if n.opts.TraceWriter != nil {
		for _, name := range delta.Watches {
			n.watchTrace(name)
		}
	}
	for _, f := range delta.Facts {
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
