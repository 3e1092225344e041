package main

// The traced run of each workload. It measures twice on one deployment:
// first an untraced half window, then a traced half window with spans
// recorded, a CPU profile running, the per-hop lookup watch installed
// and the layer counters snapshotted around it. The difference between
// the halves is the tracing overhead; everything per-layer comes from
// the traced half.

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"p2"
)

// maxBenchCPU is the share of traced CPU time the benchmark's own code
// may take on a simulator workload before the run fails: the generator
// must not be what is measured.
const maxBenchCPU = 0.05

// watchHops counts lookup tuples sent on behalf of benchmark operations
// (bare lookups and the lookups KV ops route by). It fires on every hop
// at every node, so only the traced half installs it.
func watchHops(nodes []*p2.Handle, hops *atomic.Int64) {
	for _, h := range nodes {
		h.Watch("lookup", func(ev p2.WatchEvent) {
			if ev.Dir != p2.DirSent {
				return
			}
			if eid := ev.Tuple.Field(3).AsStr(); strings.HasPrefix(eid, lookupPrefix) || strings.HasPrefix(eid, "kv!") {
				hops.Add(1)
			}
		})
	}
}

// spanMetrics reports the span-backed metrics every traced run shares.
func spanMetrics(m metricSet, sp *spanRec) {
	m.set("p2.compile_ms", median(sp.durations("p2.compile"))*1e3, "ms")
	m.set("p2.spawn_us_p50", percentile(sp.durations("p2.spawn"), 0.5)*1e6, "us")
	run := sp.durations("p2.run_vsec")
	m.set("p2.run_vsec_wall_ms_p50", percentile(run, 0.50)*1e3, "ms")
	m.set("p2.run_vsec_wall_ms_p99", percentile(run, 0.99)*1e3, "ms")
	m.set("p2.issue_us_p50", percentile(sp.durations("p2.issue"), 0.5)*1e6, "us")
}

func cpuMetrics(m metricSet, shares map[string]float64) {
	for _, l := range cpuLayers {
		m.set(l+".cpu_frac", shares[l], "ratio")
	}
}

func (w simWorkload) runTraced(o runOpts, res *result, ring *simRing, rng *rand.Rand, window float64) (*result, error) {
	half := math.Max(1, math.Round(window/2))
	plain := ring.runWindow(w, rng, half, nil)

	var hops atomic.Int64
	watchHops(ring.nodes, &hops)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced := ring.runWindow(w, rng, half, o.spans)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	res.count(plain.issued+traced.issued, plain.failed+traced.failed)
	res.Digest = ring.digest(plain, traced)

	m := res.Metrics
	spanMetrics(m, o.spans)
	m.set("p2.virt_s_per_wall_s", traced.virt/traced.wall, "ratio")
	m.set("udp.op_wall_p99_ms", 0, "ms")
	m.set("udp.op_wall_p999_ms", 0, "ms")
	layerCounters(m, traced.before, traced.after, traced.events, traced.virt, traced.wall, len(traced.lat), traced.stale, w.n)
	m.set("chord.hops_mean", ratio(float64(hops.Load()), float64(traced.issued)), "ratio")
	cpuMetrics(m, shares)
	m.set("trace_overhead_frac", 1-(traced.virt/traced.wall)/(plain.virt/plain.wall), "ratio")
	if shares["bench"] > maxBenchCPU {
		res.fail("bench.cpu_frac %.3f above %.2f: the load generator is a measurable part of the run", shares["bench"], maxBenchCPU)
	}

	// The bit-identity invariant, and what the second shard buys: replay
	// the same seed and windows untraced on one shard.
	speedup := 0.0
	if w.shards > 1 {
		ring.d.Close()
		single, _, err := buildSim(w, 1, nil)
		if err != nil {
			return nil, err
		}
		defer single.d.Close()
		rng1 := rand.New(rand.NewSource(o.seed))
		a := single.runWindow(w, rng1, half, nil)
		b := single.runWindow(w, rng1, half, nil)
		if d := single.digest(a, b); d != res.Digest {
			res.fail("sim_digest %s at shards=1 differs from %s at shards=%d", d, res.Digest, w.shards)
		} else {
			res.note("sim_digest at shards=1 equals the one at shards=%d", w.shards)
		}
		speedup = a.wall / plain.wall
	}
	m.set("eventloop.shard_speedup", speedup, "ratio")
	if err := runLayerDrivers(m, o.layerBudget, 3); err != nil {
		return nil, err
	}
	res.note("untraced half: %g virtual s in %.2f s wall; traced half: %.2f s wall, %d ops", half+w.drain, plain.wall, traced.wall, traced.issued)
	return res, nil
}

func (w udpWorkload) runTraced(o runOpts, res *result, ring *udpRing, dur time.Duration) (*result, error) {
	plain := ring.runWindow(w.put, o.seed, dur/2, nil)

	var hops atomic.Int64
	watchHops(ring.nodes, &hops)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	before := snapshot(ring.d, ring.nodes)
	traced := ring.runWindow(w.put, o.seed, dur/2, o.spans)
	after := snapshot(ring.d, ring.nodes)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	res.count(plain.issued+traced.issued, plain.failed+traced.failed)
	if w.put {
		if err := ring.readBack(); err != nil {
			res.fail("%v", err)
		}
	}

	m := res.Metrics
	spanMetrics(m, o.spans)
	m.set("p2.virt_s_per_wall_s", 1, "ratio") // a real-socket deployment runs on the wall clock
	m.set("udp.op_wall_p99_ms", percentile(traced.lat, 0.99)*1e3, "ms")
	m.set("udp.op_wall_p999_ms", percentile(traced.lat, 0.999)*1e3, "ms")
	layerCounters(m, before, after, 0, traced.wall, traced.wall, len(traced.lat), traced.stale, udpNodes)
	m.set("chord.hops_mean", ratio(float64(hops.Load()), float64(traced.issued)), "ratio")
	cpuMetrics(m, shares)
	tracedRate, _, _ := traced.steady()
	plainRate, _, _ := plain.steady()
	m.set("trace_overhead_frac", 1-tracedRate/plainRate, "ratio")
	m.set("eventloop.shard_speedup", 0, "ratio")
	if err := runLayerDrivers(m, o.layerBudget, 3); err != nil {
		return nil, err
	}
	res.note("untraced half: %d ops in %.2f s; traced half: %d ops (%d samples for the p99 and p99.9 tails)",
		len(plain.lat), plain.wall, len(traced.lat), len(traced.lat))
	return res, nil
}
