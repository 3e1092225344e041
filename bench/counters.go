package main

// Per-layer counters, read from the counters the system already keeps
// and reported as the difference between two snapshots around the
// traced window. On the simulator every count is exact for a seed.

import (
	"runtime/metrics"

	"p2"
	"p2/internal/val"
)

// counters is one snapshot, summed over all nodes of a deployment.
type counters struct {
	rulesFired, derived, dropped, probes int64
	inserts, refreshes, rows             int64
	replans                              int64

	tuplesSent, frames, retransmits, drops int64
	acksBare, acksPiggy, dups              int64
	peerBytes                              int64 // Σ NetStats.Bytes: data bytes the transports sent

	net p2.NetTotals // simulator only

	kvRepairs, kvExpiries int64

	internEntries  int
	liveHeap       uint64 // HeapAlloc after a double GC
	allocBytes     uint64
	mallocs        uint64
	gcCycles       uint32
	gcCPU, userCPU float64 // CPU seconds
}

const (
	gcCPUMetric   = "/cpu/classes/gc/total:cpu-seconds"
	userCPUMetric = "/cpu/classes/user:cpu-seconds"
)

func snapshot(d *p2.Deployment, nodes []*p2.Handle) counters {
	var c counters
	for _, h := range nodes {
		h.Do(func(n *p2.Node) {
			es := n.Stats()
			c.rulesFired += es.RulesFired
			c.derived += es.TuplesDerived
			c.dropped += es.TuplesDropped
			c.probes += es.Probes
			ts := n.Transport().Stats()
			c.tuplesSent += ts.TuplesSent
			c.frames += ts.Frames
			c.retransmits += ts.Retransmits
			c.drops += ts.Drops + ts.QueueDrops
			c.acksBare += ts.AcksSent
			c.acksPiggy += ts.AcksPiggybacked
			c.dups += ts.DupsSuppressed
			for _, t := range n.TableStats() {
				c.inserts += t.Inserts
				c.refreshes += t.Refreshes
				c.rows += int64(t.Tuples)
			}
			for _, p := range n.PlanStats() {
				c.replans += p.Replans
			}
			for _, s := range n.NetStats() {
				c.peerBytes += s.Bytes
			}
			if kv, ok := n.KVStats(); ok {
				c.kvRepairs += kv.Repairs
				c.kvExpiries += kv.Expiries
			}
		})
	}
	c.net = d.NetTotals()
	c.internEntries, _ = val.InternStats()
	ms := liveHeap()
	c.liveHeap, c.allocBytes, c.mallocs, c.gcCycles = ms.HeapAlloc, ms.TotalAlloc, ms.Mallocs, ms.NumGC
	samples := []metrics.Sample{{Name: gcCPUMetric}, {Name: userCPUMetric}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.userCPU = samples[1].Value.Float64()
	}
	return c
}

// wireBytes is what the deployment put on the wire: the simulator's
// datagram bytes (headers and acks included) where the network is
// simulated, the transports' per-peer data bytes on real sockets, where
// no global accounting exists.
func (c counters) wireBytes() int64 {
	if c.net.BytesSent > 0 {
		return c.net.BytesSent
	}
	return c.peerBytes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters turns two snapshots into the counter-backed per-layer
// metrics. events is the number of loop events the window fired (the
// simulator's Run return); real-socket deployments expose no such count
// and rule firings stand in for it. virt is the window in deployment
// seconds, wall in wall seconds, ops the operations completed.
func layerCounters(m metricSet, a, b counters, events int64, virt, wall float64, ops, stale, nodes int) {
	if events == 0 {
		events = b.rulesFired - a.rulesFired
	}
	ev := float64(events)
	m.set("engine.events", ev, "count")
	m.set("engine.events_per_wall_s", ratio(ev, wall), "1/s")
	m.set("engine.rules_fired", float64(b.rulesFired-a.rulesFired), "count")
	m.set("engine.tuples_derived", float64(b.derived-a.derived), "count")
	m.set("engine.tuples_dropped", float64(b.dropped-a.dropped), "count")
	m.set("table.probes_per_event", ratio(float64(b.probes-a.probes), ev), "ratio")
	m.set("table.inserts", float64(b.inserts-a.inserts), "count")
	m.set("table.refreshes", float64(b.refreshes-a.refreshes), "count")
	m.set("table.rows_per_node", ratio(float64(b.rows), float64(nodes)), "count")
	m.set("planner.replans", float64(b.replans-a.replans), "count")

	sent := float64(b.tuplesSent - a.tuplesSent)
	frames := float64(b.frames - a.frames)
	bare := float64(b.acksBare - a.acksBare)
	piggy := float64(b.acksPiggy - a.acksPiggy)
	m.set("transport.tuples_sent", sent, "count")
	m.set("transport.frames", frames, "count")
	m.set("transport.batch_fill", ratio(sent, frames), "ratio")
	m.set("transport.acks_bare", bare, "count")
	m.set("transport.ack_piggyback_frac", ratio(piggy, piggy+bare), "ratio")
	m.set("transport.datagrams_per_op", ratio(frames+bare, float64(ops)), "ratio")
	m.set("transport.retransmit_frac", ratio(float64(b.retransmits-a.retransmits), sent), "ratio")
	m.set("transport.drops", float64(b.drops-a.drops), "count")
	m.set("transport.dups_suppressed", float64(b.dups-a.dups), "count")
	m.set("simnet.packets", float64(b.net.PacketsSent-a.net.PacketsSent), "count")
	m.set("simnet.bytes", float64(b.net.BytesSent-a.net.BytesSent), "B")
	m.set("simnet.packets_dropped", float64(b.net.PacketsLost-a.net.PacketsLost), "count")
	m.set("net.wire_Bps_per_node", ratio(float64(b.wireBytes()-a.wireBytes()), virt*float64(nodes)), "B/s")

	m.set("kv.repair_fires", float64(b.kvRepairs-a.kvRepairs), "count")
	m.set("kv.lease_expiries", float64(b.kvExpiries-a.kvExpiries), "count")
	m.set("kv.stale_frac", ratio(float64(stale), float64(ops)), "ratio")

	m.set("val.intern_entries", float64(b.internEntries), "count")
	m.set("runtime.alloc_B_per_event", ratio(float64(b.allocBytes-a.allocBytes), ev), "B")
	m.set("runtime.allocs_per_event", ratio(float64(b.mallocs-a.mallocs), ev), "ratio")
	m.set("runtime.heap_growth_B_per_op", ratio(float64(b.liveHeap)-float64(a.liveHeap), float64(ops)), "B")
	// The closing snapshot forces two collections of its own before it
	// reads the cycle count.
	m.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles)-2, "count")
	m.set("runtime.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, (b.gcCPU-a.gcCPU)+(b.userCPU-a.userCPU)), "ratio")
}
