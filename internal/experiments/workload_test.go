package experiments

import (
	"fmt"
	"testing"

	"p2/internal/simnet"
)

// TestOpenLoopWorkload drives a modest open-loop stream against a
// converged 32-node ring and checks the report is coherent: nearly
// everything completes, percentiles are ordered, and hop counts sit in
// the O(log N) band.
func TestOpenLoopWorkload(t *testing.T) {
	h := NewChord(ChordOpts{N: 32, Seed: 1, JoinSpacing: 0.1})
	defer h.D.Close()
	h.D.Run(32*0.1 + 200)
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring correctness %.2f before workload", rc)
	}

	rep := RunLookups(h, LookupOpts{Rate: 10, Duration: 20, Seed: 7})
	checkGolden(t, "openloop.txt", fmt.Sprintf("%+v\n", rep))
	if rep.Issued < 150 || rep.Issued > 250 {
		t.Fatalf("issued %d lookups; a rate-10 20s Poisson window should land near 200", rep.Issued)
	}
	if cr := rep.CompletionRate(); cr < 0.99 {
		t.Fatalf("completion rate %.3f on a static converged ring", cr)
	}
	if rep.HopP50 > rep.HopP99 || rep.HopP99 > rep.HopP999 {
		t.Fatalf("hop percentiles out of order: %v/%v/%v", rep.HopP50, rep.HopP99, rep.HopP999)
	}
	if rep.LatencyP50 > rep.LatencyP99 || rep.LatencyP99 > rep.LatencyP999 {
		t.Fatalf("latency percentiles out of order: %v/%v/%v", rep.LatencyP50, rep.LatencyP99, rep.LatencyP999)
	}
	if rep.LatencyP50 <= 0 {
		t.Fatal("p50 latency is zero; latencies were not measured")
	}
	if rep.MeanHops <= 0 || rep.MeanHops > 10 {
		t.Fatalf("mean hops %.2f outside the plausible band for N=32", rep.MeanHops)
	}
}

// TestOpenLoopDeterministicAcrossShards pins the driver to the same
// bit-identity discipline as Chord itself: the same seed must produce
// the same report — every count and every percentile — at 1 and 4
// shards, on the WAN topology.
func TestOpenLoopDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) string {
		wan := simnet.TransitStubWAN(3, 3, 5)
		h := NewChord(ChordOpts{N: 24, Seed: 3, JoinSpacing: 0.1, Shards: shards, Net: &wan})
		defer h.D.Close()
		h.D.Run(24*0.1 + 60)
		rep := RunLookups(h, LookupOpts{Rate: 5, Duration: 10, Seed: 11})
		return fmt.Sprintf("%+v", rep)
	}
	a, b := run(1), run(4)
	checkGolden(t, "openloop-wan-shards.txt", a+"\n")
	if a != b {
		t.Fatalf("workload report differs across shard counts:\n  shards=1: %s\n  shards=4: %s", a, b)
	}
}
