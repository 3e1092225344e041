package experiments

import (
	"fmt"
	"os"
	"testing"
)

// TestKVWorkload drives the open-loop PUT/GET mix against a converged
// 32-node KV ring and checks the report is coherent: nearly everything
// completes, latencies are ordered, and staleness stays marginal on a
// static ring.
func TestKVWorkload(t *testing.T) {
	h := NewChord(ChordOpts{N: 32, Seed: 1, JoinSpacing: 0.1, KV: true})
	defer h.D.Close()
	h.D.Run(32*0.1 + 200)
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring correctness %.2f before workload", rc)
	}

	rep := RunKV(h, KVOpts{LookupOpts: LookupOpts{Rate: 10, Duration: 20, Seed: 7}})
	checkGolden(t, "kv.txt", fmt.Sprintf("%+v\n", rep))
	issued := rep.PutsIssued + rep.GetsIssued
	if issued < 150 || issued > 250 {
		t.Fatalf("issued %d ops; a rate-10 20s Poisson window should land near 200", issued)
	}
	if rep.PutsIssued == 0 || rep.GetsIssued == 0 {
		t.Fatalf("mix degenerate: %d puts, %d gets", rep.PutsIssued, rep.GetsIssued)
	}
	if cr := rep.CompletionRate(); cr < 0.99 {
		t.Fatalf("completion rate %.3f on a static converged ring", cr)
	}
	if rep.PutP50 > rep.PutP99 || rep.PutP99 > rep.PutP999 {
		t.Fatalf("put percentiles out of order: %v/%v/%v", rep.PutP50, rep.PutP99, rep.PutP999)
	}
	if rep.GetP50 > rep.GetP99 || rep.GetP99 > rep.GetP999 {
		t.Fatalf("get percentiles out of order: %v/%v/%v", rep.GetP50, rep.GetP99, rep.GetP999)
	}
	if rep.PutP50 <= 0 || rep.GetP50 <= 0 {
		t.Fatal("p50 latency is zero; latencies were not measured")
	}
	if sr := rep.StalenessRate(); sr > 0.05 {
		t.Fatalf("staleness rate %.3f on a static ring", sr)
	}
}

// TestKVWorkloadDeterministicAcrossShards pins the KV driver to the
// same bit-identity discipline as the lookup driver: same seed, same
// report — every count, percentile, and staleness tally — at 1 and 4
// shards.
func TestKVWorkloadDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) string {
		h := NewChord(ChordOpts{N: 24, Seed: 3, JoinSpacing: 0.1, Shards: shards, KV: true})
		defer h.D.Close()
		h.D.Run(24*0.1 + 120)
		rep := RunKV(h, KVOpts{LookupOpts: LookupOpts{Rate: 5, Duration: 10, Seed: 11}})
		return fmt.Sprintf("%+v", rep)
	}
	a, b := run(1), run(4)
	checkGolden(t, "kv-shards.txt", a+"\n")
	if a != b {
		t.Fatalf("KV workload report differs across shard counts:\n  shards=1: %s\n  shards=4: %s", a, b)
	}
}

// TestChurnedWorkloadSoak is the churn variant of the soak: the
// open-loop PUT/GET driver runs while EnableChurn keeps killing and
// replacing nodes, and the run must still clear a completion-rate
// floor and stay bit-identical across shard counts. The always-on
// shape is modest (64 nodes); CI's test-scale job sets P2_SCALE_SOAK=1
// for the 1k-node version.
func TestChurnedWorkloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churned soak skipped in -short mode")
	}
	// Session lengths keep the death rate meaningful but survivable:
	// ~3 deaths inside the 64-node window, ~50 inside the 1k one.
	// There are no client-level retries — a lookup that routes into a
	// just-died node is simply lost — so the floor is the single-shot
	// completion rate under active membership turnover.
	n, rate, dur, session := 64, 10.0, 30.0, 600.0
	if os.Getenv("P2_SCALE_SOAK") != "" {
		n, rate, dur, session = 1000, 50.0, 60.0, 1200.0
	}
	run := func(shards int) (KVReport, string) {
		h := NewChord(ChordOpts{
			N: n, Seed: 5, JoinSpacing: 0.05, JoinRamp: n >= 256,
			KV: true, Shards: shards,
		})
		defer h.D.Close()
		h.D.Run(h.JoinDeadline() + 120)
		h.StartChurn(session)
		rep := RunKV(h, KVOpts{LookupOpts: LookupOpts{Rate: rate, Duration: dur, Seed: 9}})
		h.D.DisableChurn()
		return rep, fmt.Sprintf("%+v", rep)
	}
	repA, a := run(1)
	_, b := run(4)
	if a != b {
		t.Fatalf("churned KV soak differs across shard counts:\n  shards=1: %s\n  shards=4: %s", a, b)
	}
	if cr := repA.CompletionRate(); cr < 0.85 {
		t.Fatalf("completion rate %.3f under churn (floor 0.85): %s", cr, a)
	}
	t.Logf("n=%d churned soak: %s", n, a)
}
