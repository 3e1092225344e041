package experiments

import (
	"testing"
)

// TestPartitionDegradesAndHeals cuts a converged ring's network between
// two halves of the node population, verifies lookups crossing the cut
// fail while intra-partition state survives, then heals the cut and
// checks the ring re-converges.
func TestPartitionDegradesAndHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	h := NewChord(ChordOpts{N: 10, Seed: 17, JoinSpacing: 1})
	h.D.Run(150)
	if h.RingCorrectness() < 1.0 {
		t.Fatal("not converged")
	}
	live := h.D.Addrs()
	groupA, groupB := live[:5], live[5:]
	cut := func(on bool) {
		for _, a := range groupA {
			for _, b := range groupB {
				h.D.Partition(a, b, on)
			}
		}
	}
	cut(true)
	h.D.Run(120) // failure detectors fire, ring reorganizes per side

	// Lookups issued inside one partition must not resolve to owners on
	// the other side.
	crossOwners := 0
	for i := 0; i < 10; i++ {
		from := groupA[i%len(groupA)]
		lr := h.Lookup(from, h.RandomKey())
		h.D.Run(12)
		if lr.Done {
			for _, b := range groupB {
				if lr.Owner == b {
					crossOwners++
				}
			}
		}
	}
	if crossOwners > 0 {
		t.Fatalf("%d lookups resolved across the partition", crossOwners)
	}

	cut(false)
	// Healing requires re-join (partition-side rings must re-merge);
	// C6/C7 re-join through the landmark plus stabilization gossip do
	// this within a few cycles.
	h.D.Run(300)
	if rc := h.RingCorrectness(); rc < 0.8 {
		t.Fatalf("ring correctness after heal = %.2f", rc)
	}
	// Lookups work across the former cut again.
	done := 0
	for i := 0; i < 10; i++ {
		lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
		h.D.Run(12)
		if lr.Done {
			done++
		}
	}
	if done < 8 {
		t.Fatalf("post-heal lookups completed %d/10", done)
	}
}
