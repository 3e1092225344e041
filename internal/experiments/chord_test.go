package experiments

import (
	"testing"

	"p2/internal/id"
)

// TestSmallRingConverges is the core correctness test of the whole
// reproduction: a real Chord ring, built purely by executing the
// OverLog specification, converges to the ideal successor ring.
func TestSmallRingConverges(t *testing.T) {
	h := NewChord(ChordOpts{N: 8, Seed: 42, JoinSpacing: 1})
	h.D.Run(120)
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring correctness = %.2f after 120 s, want 1.0", rc)
	}
}

func TestLookupsResolveToIdealOwner(t *testing.T) {
	h := NewChord(ChordOpts{N: 10, Seed: 7, JoinSpacing: 1})
	h.D.Run(150)
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring not converged: %.2f", rc)
	}
	ok, total := 0, 20
	for i := 0; i < total; i++ {
		key := h.RandomKey()
		lr := h.Lookup(h.RandomLiveAddr(), key)
		h.D.Run(10)
		if !lr.Done {
			t.Fatalf("lookup %d never completed", i)
		}
		if lr.Owner == h.IdealOwner(key) {
			ok++
		}
	}
	if ok != total {
		t.Fatalf("correct lookups = %d/%d", ok, total)
	}
}

func TestLookupHopsAreLogarithmic(t *testing.T) {
	h := NewChord(ChordOpts{N: 16, Seed: 3, JoinSpacing: 1})
	h.D.Run(250) // let fingers populate
	totalHops, n := 0, 30
	for i := 0; i < n; i++ {
		lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
		h.D.Run(10)
		if lr.Done {
			totalHops += lr.Hops
		}
	}
	mean := float64(totalHops) / float64(n)
	// log2(16)/2 = 2; allow generous slack but catch O(N) routing.
	if mean > 6 {
		t.Fatalf("mean hops = %.1f, expected ~2 for N=16", mean)
	}
}

func TestMaintenanceTrafficFlowsAndClassifies(t *testing.T) {
	h := NewChord(ChordOpts{N: 5, Seed: 1, JoinSpacing: 1})
	h.D.Run(60)
	h.ResetTraffic()
	h.D.Run(30)
	lookupB, maintB := h.TrafficBytes()
	if maintB == 0 {
		t.Fatal("no maintenance traffic measured")
	}
	// Idle network: no lookups issued, only join/fix-finger lookups
	// (which count as lookup class) are permitted.
	perNodePerSec := float64(maintB) / 5 / 30
	if perNodePerSec > 1024 {
		t.Fatalf("maintenance bandwidth %.0f B/s/node exceeds the ~1 kB/s sanity bound", perNodePerSec)
	}
	_ = lookupB
}

func TestNodeFailureHealsRing(t *testing.T) {
	h := NewChord(ChordOpts{N: 8, Seed: 11, JoinSpacing: 1})
	h.D.Run(120)
	if h.RingCorrectness() < 1.0 {
		t.Fatal("ring not converged before failure")
	}
	// Kill two non-landmark nodes.
	live := h.D.Addrs()
	h.D.Kill(live[3])
	h.D.Kill(live[5])
	// Ring must re-converge among survivors within the failure
	// detection + stabilization horizon.
	h.D.Run(120)
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring correctness after failures = %.2f", rc)
	}
	if got := len(h.D.Addrs()); got != 6 {
		t.Fatalf("live nodes = %d, want 6", got)
	}
}

func TestLateJoinIntegrates(t *testing.T) {
	h := NewChord(ChordOpts{N: 6, Seed: 5, JoinSpacing: 1})
	h.D.Run(100)
	before := len(h.D.Addrs())
	h.spawn(h.nextAddr())
	h.D.Run(90)
	if len(h.D.Addrs()) != before+1 {
		t.Fatal("late joiner not live")
	}
	if rc := h.RingCorrectness(); rc < 1.0 {
		t.Fatalf("ring correctness with late joiner = %.2f", rc)
	}
}

func TestConsistencyProbeOnStableRing(t *testing.T) {
	h := NewChord(ChordOpts{N: 10, Seed: 9, JoinSpacing: 1})
	h.D.Run(150)
	frac := h.ConsistencyProbe(5, 10)
	if frac < 1.0 {
		t.Fatalf("stable ring consistency = %.2f, want 1.0", frac)
	}
}

func TestChurnKeepsPopulationConstant(t *testing.T) {
	h := NewChord(ChordOpts{N: 10, Seed: 13, JoinSpacing: 0.5})
	h.D.Run(60)
	h.StartChurn(30) // aggressive: mean 30 s sessions
	h.D.Run(120)
	h.D.DisableChurn()
	if got := len(h.D.Addrs()); got != 10 {
		t.Fatalf("population under churn = %d, want 10", got)
	}
	// Under extreme churn some lookups may fail, but the system must
	// still answer some probes.
	frac := h.ConsistencyProbe(5, 15)
	if frac <= 0 {
		t.Log("warning: zero consistency under extreme churn (acceptable at 30 s sessions)")
	}
}

func TestIdealOwnerWraps(t *testing.T) {
	h := NewChord(ChordOpts{N: 4, Seed: 2, JoinSpacing: 0.1})
	h.D.Run(10)
	// A key greater than every node ID wraps to the smallest.
	maxID := id.Zero
	var minAddr string
	minID := id.Zero.Sub(id.One)
	for _, a := range h.D.Addrs() {
		nid := id.Hash(a)
		if maxID.Less(nid) {
			maxID = nid
		}
		if nid.Less(minID) {
			minID = nid
			minAddr = a
		}
	}
	key := maxID.Add(id.FromUint64(1))
	if got := h.IdealOwner(key); got != minAddr {
		t.Fatalf("IdealOwner wrap = %s, want %s", got, minAddr)
	}
}
