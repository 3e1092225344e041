package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"p2/internal/simnet"
)

// TestScale10k is the scale-out acceptance soak: a 10k-node sharded
// Chord deployment on the transit-stub WAN converges and completes a
// 60-virtual-second open-loop lookup workload, and the process heap
// stays within the interned-value budget. It costs tens of wall
// minutes on one core, so it only runs when asked for: CI's test-scale
// job sets P2_SCALE_SOAK=1, and local probing can size it down with
// P2_SCALE_N (e.g. P2_SCALE_N=1000 go test -run TestScale10k).
func TestScale10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node soak skipped in -short mode (CI: test-scale job)")
	}
	n := 0
	if s := os.Getenv("P2_SCALE_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	if n == 0 {
		if os.Getenv("P2_SCALE_SOAK") == "" {
			t.Skip("10k-node soak needs P2_SCALE_SOAK=1 (CI: test-scale job) or P2_SCALE_N=<n>")
		}
		n = 10000
	}

	wan := simnet.TransitStubWAN(8, 4, 17)
	h := NewChord(ChordOpts{N: n, Seed: 1, JoinSpacing: 0.01,
		JoinRamp: true, Net: &wan})
	defer h.D.Close()

	// Ramped build (4%/s growth, capped at 100 joins/s) keeps every
	// prefix of the ring converged; the settle window then only has to
	// absorb the tail of in-flight stabilization.
	h.D.Run(h.JoinDeadline() + 120)
	// Converged means the successor graph is the true ring for (almost)
	// every node; at 10k a handful of stragglers mid-stabilization are
	// tolerated, total wedging is not.
	if rc := h.RingCorrectness(); rc < 0.99 {
		t.Fatalf("ring correctness %.4f after build+settle; deployment did not converge", rc)
	}

	rep := RunLookups(h, LookupOpts{Rate: 100, Duration: 60, Seed: 2})
	if rep.Issued == 0 {
		t.Fatal("workload issued nothing")
	}
	if cr := rep.CompletionRate(); cr < 0.99 {
		t.Fatalf("completion rate %.4f (%d/%d); the overlay lost lookups under open-loop load",
			cr, rep.Completed, rep.Issued)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.Logf("n=%d issued=%d completed=%.2f%% hops p50/p99/p999 = %.0f/%.0f/%.0f  latency p50/p99/p999 = %.0f/%.0f/%.0f ms",
		n, rep.Issued, 100*rep.CompletionRate(),
		rep.HopP50, rep.HopP99, rep.HopP999,
		rep.LatencyP50*1000, rep.LatencyP99*1000, rep.LatencyP999*1000)
	t.Logf("heap in use %.1f MB (%.1f kB/node)", float64(ms.HeapInuse)/(1<<20), float64(ms.HeapInuse)/float64(n)/1024)

	fmt.Println() // keep test output readable under -v
}
