package experiments

import (
	"fmt"
	"testing"

	"p2/internal/simnet"
)

// chordSummary captures every Chord metric the paper's figures are
// built from, rendered to exact (bit-comparable) values.
type chordSummary struct {
	events      int
	ring        float64
	lookupBytes int64
	maintBytes  int64
	live        int
	lookups     []string
	placement   map[string]int
}

// runShardedWorkload drives one full measurement pass — staggered
// build, a lookup workload, a churn phase, more lookups — at the given
// shard count and summarizes the metrics. A nil net runs the paper
// topology; otherwise the given one (the WAN determinism test).
func runShardedWorkload(n, shards int, seed int64, spacing float64, churn bool, net *simnet.Config) chordSummary {
	h := NewChord(ChordOpts{N: n, Seed: seed, JoinSpacing: spacing, Shards: shards, Net: net})
	defer h.D.Close()
	h.D.Run(float64(n)*spacing + 15)

	h.ResetTraffic()
	for i := 0; i < 20; i++ {
		h.Lookup(h.RandomLiveAddr(), h.RandomKey())
		h.D.Run(0.75)
	}
	events := h.D.Run(10)

	if churn {
		h.StartChurn(45)
		h.D.Run(15)
		h.D.DisableChurn()
		for i := 0; i < 10; i++ {
			h.Lookup(h.RandomLiveAddr(), h.RandomKey())
			h.D.Run(0.75)
		}
		h.D.Run(10)
	}

	lb, mb := h.TrafficBytes()
	s := chordSummary{
		events:      events,
		ring:        h.RingCorrectness(),
		lookupBytes: lb,
		maintBytes:  mb,
		live:        len(h.D.Addrs()),
		placement:   placementOf(h),
	}
	for _, lr := range h.Results {
		s.lookups = append(s.lookups, fmt.Sprintf("%s %s->%s done=%v hops=%d t=%.9f",
			lr.EventID, lr.From, lr.Owner, lr.Done, lr.Hops, lr.Completed))
	}
	return s
}

// placementOf maps every live node of h to its shard.
func placementOf(h *Chord) map[string]int {
	out := make(map[string]int)
	for _, a := range h.D.Addrs() {
		out[a] = h.D.ShardOf(a)
	}
	return out
}

func diffSummaries(t *testing.T, label string, a, b chordSummary) {
	t.Helper()
	if a.events != b.events {
		t.Errorf("%s: events %d vs %d", label, a.events, b.events)
	}
	if a.ring != b.ring {
		t.Errorf("%s: ring correctness %v vs %v", label, a.ring, b.ring)
	}
	if a.lookupBytes != b.lookupBytes || a.maintBytes != b.maintBytes {
		t.Errorf("%s: traffic (%d,%d) vs (%d,%d)", label,
			a.lookupBytes, a.maintBytes, b.lookupBytes, b.maintBytes)
	}
	if a.live != b.live {
		t.Errorf("%s: live %d vs %d", label, a.live, b.live)
	}
	if len(a.lookups) != len(b.lookups) {
		t.Fatalf("%s: %d vs %d lookups issued", label, len(a.lookups), len(b.lookups))
	}
	for i := range a.lookups {
		if a.lookups[i] != b.lookups[i] {
			t.Errorf("%s: lookup %d:\n  %s\n  %s", label, i, a.lookups[i], b.lookups[i])
		}
	}
}

// TestShardedDeterminism is the tentpole guarantee at working scale: a
// 64-node Chord run — including churn, whose kills and replacements are
// barrier work — reports bit-identical Chord metrics at 1, 3, and 4
// shards under the same seed.
func TestShardedDeterminism(t *testing.T) {
	base := runShardedWorkload(64, 1, 42, 0.05, true, nil)
	if len(base.lookups) == 0 {
		t.Fatal("workload issued no lookups")
	}
	for _, p := range []int{3, 4} {
		diffSummaries(t, fmt.Sprintf("shards=%d", p), base, runShardedWorkload(64, p, 42, 0.05, true, nil))
	}
}

// TestShardedDeterminismWAN re-runs the determinism guarantee on the
// transit-stub WAN model with every dynamic effect armed — per-link
// measured latencies, 10% jitter, border-router queuing draws, transit
// serialization, and Gilbert-Elliott loss bursts. All of it is modeled
// from sender-owned state (per-node rng streams, the sender's link
// clock), so a churned 64-node run must stay bit-identical at 1, 3,
// and 4 shards; this test is what pins that discipline for the WAN
// code paths.
func TestShardedDeterminismWAN(t *testing.T) {
	wan := simnet.TransitStubWAN(3, 3, 99)
	wan.BurstEnter, wan.BurstExit, wan.BurstLoss = 0.01, 0.25, 0.5
	base := runShardedWorkload(64, 1, 42, 0.05, true, &wan)
	if len(base.lookups) == 0 {
		t.Fatal("workload issued no lookups")
	}
	for _, p := range []int{3, 4} {
		diffSummaries(t, fmt.Sprintf("wan shards=%d", p), base, runShardedWorkload(64, p, 42, 0.05, true, &wan))
	}
}

// TestShardedDeterminism512 is the acceptance-scale check: a 512-node
// ring at 8 shards reports identical metrics to the single-shard run.
// The churn phase is skipped to keep the wall time CI-friendly; churn
// determinism is covered at 64 nodes above.
func TestShardedDeterminism512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node determinism run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("512-node soak skipped under -race; TestShardedDeterminism covers the same machinery")
	}
	base := runShardedWorkload(512, 1, 7, 0.02, false, nil)
	diffSummaries(t, "shards=8", base, runShardedWorkload(512, 8, 7, 0.02, false, nil))
}

// TestShardedPlacementByDomain checks the placement rule: every node of
// a domain lands on shard = domain mod P, so intra-domain chatter never
// crosses a shard boundary.
func TestShardedPlacementByDomain(t *testing.T) {
	h := NewChord(ChordOpts{N: 24, Seed: 3, JoinSpacing: 0.01, Shards: 4})
	defer h.D.Close()
	h.D.Run(5)
	pm := placementOf(h)
	if len(pm) != 24 {
		t.Fatalf("placement has %d entries, want 24", len(pm))
	}
	for addr, shard := range pm {
		if want := h.D.DomainOf(addr) % 4; shard != want {
			t.Errorf("%s on shard %d, want domain %d mod 4 = %d",
				addr, shard, h.D.DomainOf(addr), want)
		}
	}
}

// TestShardedChurnKeepsPopulation mirrors the single-loop churn test in
// sharded mode: kills and replacements through the barrier lane keep
// the population constant and the ring functional.
func TestShardedChurnKeepsPopulation(t *testing.T) {
	h := NewChord(ChordOpts{N: 16, Seed: 11, JoinSpacing: 0.2, Shards: 3})
	defer h.D.Close()
	h.D.Run(60)
	h.StartChurn(30)
	h.D.Run(90)
	h.D.DisableChurn()
	if got := len(h.D.Addrs()); got != 16 {
		t.Fatalf("live population %d, want 16", got)
	}
	if h.nextID <= 16 {
		t.Fatal("churn never replaced a node")
	}
	h.D.Run(60)
	lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
	h.D.Run(10)
	if !lr.Done {
		t.Fatal("post-churn lookup failed")
	}
}
