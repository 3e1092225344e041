package experiments

import (
	"bytes"
	"strings"
	"testing"

	"p2/internal/simnet"
)

// TestSuccessorAblation validates the paper's §5.2 criticism of
// single-successor Chord: after a burst failure, a succSize=1 ring
// stays broken while the default bounded list recovers.
func TestSuccessorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	rows := RunSuccessorAblation(QuickScale(), 20, 0.25, []int{1, 4}, 5)
	if len(rows) != 2 {
		t.Fatal("missing rows")
	}
	single, list := rows[0], rows[1]
	if single.SuccSize != 1 || list.SuccSize != 4 {
		t.Fatal("row order wrong")
	}
	if list.RingCorrectness < 0.95 {
		t.Fatalf("succSize=4 ring did not recover: %.2f", list.RingCorrectness)
	}
	if single.RingCorrectness > list.RingCorrectness {
		t.Fatalf("single successor should not beat a successor list: %.2f vs %.2f",
			single.RingCorrectness, list.RingCorrectness)
	}
	var buf bytes.Buffer
	PrintSuccessorAblation(&buf, rows)
	if !strings.Contains(buf.String(), "succSize") {
		t.Fatal("print malformed")
	}
}

// TestTransportAblation validates that the reliable transport is what
// keeps multi-hop lookups alive on a lossy network.
func TestTransportAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	rows := RunTransportAblation(QuickScale(), 16, []float64{0.15}, 25, 9)
	if len(rows) != 2 {
		t.Fatal("missing rows")
	}
	var reliable, raw TransportAblationRow
	for _, r := range rows {
		if r.Reliable {
			reliable = r
		} else {
			raw = r
		}
	}
	if reliable.Completed <= raw.Completed {
		t.Fatalf("reliable (%d/%d) should beat raw (%d/%d) at 15%% loss",
			reliable.Completed, reliable.Issued, raw.Completed, raw.Issued)
	}
	if reliable.Completed < reliable.Issued*8/10 {
		t.Fatalf("reliable transport completed only %d/%d", reliable.Completed, reliable.Issued)
	}
	var buf bytes.Buffer
	PrintTransportAblation(&buf, rows)
	if !strings.Contains(buf.String(), "reliable") {
		t.Fatal("print malformed")
	}
}

// TestAblationsUseScaleTopology runs both ablations on a topology whose
// every link takes 10^4 virtual seconds, so no datagram arrives within
// a run: no ring can form, and a lookup completes only where its
// requester answers it alone (the landmark, whose ring is itself). An
// ablation that built the default topology instead of sc.Net would
// report a healed ring and nearly every lookup completed.
func TestAblationsUseScaleTopology(t *testing.T) {
	silent := simnet.DefaultConfig()
	silent.IntraLatency, silent.InterLatency = 1e4, 1e4
	sc := QuickScale()
	sc.Net = &silent
	for _, r := range RunSuccessorAblation(sc, 8, 0.25, []int{4}, 1) {
		if r.RingCorrectness > 0 {
			t.Errorf("succSize=%d: ring correctness %.2f on a network that delivers nothing", r.SuccSize, r.RingCorrectness)
		}
	}
	for _, r := range RunTransportAblation(sc, 8, []float64{0}, 10, 1) {
		if r.Completed > r.Issued/2 {
			t.Errorf("reliable=%v: %d/%d lookups completed on a network that delivers nothing", r.Reliable, r.Completed, r.Issued)
		}
	}
}
