package experiments

import (
	"fmt"
	"io"

	"p2"
	"p2/internal/harness"
	"p2/internal/simnet"
	"p2/internal/val"
)

// Ablations probe two design choices of this reproduction: the bounded
// successor list (the paper criticises MACEDON's single-successor Chord
// as "highly likely that the ring becomes partitioned", §5.2) and the
// reliable transport layer (§3.4's retransmission elements).

// SuccessorAblationRow reports ring survival for one successor-list
// size after a burst of simultaneous failures.
type SuccessorAblationRow struct {
	SuccSize        int
	KilledFrac      float64
	RingCorrectness float64 // among survivors, after recovery time
	LiveNodes       int
}

// RunSuccessorAblation builds an n-node ring per successor-list size,
// kills killFrac of the nodes at once, waits out the recovery horizon,
// and reports how much of the ring survived. With a single successor
// the ring partitions; with the default list of 4-5 it heals.
func RunSuccessorAblation(n int, killFrac float64, sizes []int, seed int64) []SuccessorAblationRow {
	var rows []SuccessorAblationRow
	for _, size := range sizes {
		h := harness.NewChord(harness.Opts{
			N: n, Seed: seed, JoinSpacing: 0.5,
			Defines: map[string]val.Value{"succSize": val.Int(int64(size))},
		})
		h.Run(float64(n)*0.5 + 300)
		// Kill a random burst (never the landmark).
		live := h.LiveAddrs()
		kill := int(killFrac * float64(len(live)))
		killed := 0
		for _, a := range live {
			if killed >= kill {
				break
			}
			if a == live[0] {
				continue // landmark
			}
			h.Kill(a)
			killed++
		}
		h.Run(240) // failure detection + stabilization horizon
		rows = append(rows, SuccessorAblationRow{
			SuccSize:        size,
			KilledFrac:      killFrac,
			RingCorrectness: h.RingCorrectness(),
			LiveNodes:       len(h.LiveAddrs()),
		})
		h.Close() // per ring: don't hold finished shard workers across iterations
	}
	return rows
}

// PrintSuccessorAblation renders the ablation table.
func PrintSuccessorAblation(w io.Writer, rows []SuccessorAblationRow) {
	fmt.Fprintln(w, "== Ablation: successor-list size vs ring survival after burst failure ==")
	fmt.Fprintf(w, "%-10s %-12s %-14s %-10s\n", "succSize", "killedFrac", "ring-correct", "live")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-12.2f %-14.2f %-10d\n",
			r.SuccSize, r.KilledFrac, r.RingCorrectness, r.LiveNodes)
	}
}

// TransportAblationRow reports lookup completion under packet loss for
// one transport mode.
type TransportAblationRow struct {
	LossRate  float64
	Reliable  bool
	Issued    int
	Completed int
}

// RunTransportAblation measures lookup completion on a lossy network
// with and without the reliable transport. Multi-hop lookups compound
// per-hop loss, so raw UDP collapses where retransmission holds.
func RunTransportAblation(n int, lossRates []float64, lookups int, seed int64) []TransportAblationRow {
	var rows []TransportAblationRow
	for _, loss := range lossRates {
		for _, reliable := range []bool{true, false} {
			cfg := simnet.DefaultConfig()
			cfg.LossRate = loss
			tc := p2.DefaultTransportConfig()
			tc.Unreliable = !reliable
			h := harness.NewChord(harness.Opts{
				N: n, Seed: seed, JoinSpacing: 0.5, Net: &cfg, Transport: &tc,
			})
			h.Run(float64(n)*0.5 + 250)
			row := TransportAblationRow{LossRate: loss, Reliable: reliable}
			for i := 0; i < lookups; i++ {
				lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
				h.Run(12)
				row.Issued++
				if lr.Done {
					row.Completed++
				}
			}
			rows = append(rows, row)
			h.Close() // per ring: don't hold finished shard workers across iterations
		}
	}
	return rows
}

// PrintTransportAblation renders the ablation table.
func PrintTransportAblation(w io.Writer, rows []TransportAblationRow) {
	fmt.Fprintln(w, "== Ablation: reliable transport vs raw datagrams under loss ==")
	fmt.Fprintf(w, "%-10s %-12s %-12s\n", "loss", "transport", "completed")
	for _, r := range rows {
		mode := "raw"
		if r.Reliable {
			mode = "reliable"
		}
		fmt.Fprintf(w, "%-10.2f %-12s %d/%d\n", r.LossRate, mode, r.Completed, r.Issued)
	}
}
