package transport

// Transport-under-partition coverage: a network cut mid-stream must
// exhaust the retry budget (surfacing drops), collapse the congestion
// window, and leave the stack able to recover cleanly once the
// partition heals — for the batched, unbatched, and unreliable chains.

import (
	"fmt"
	"testing"

	"p2/internal/tuple"
)

func TestReliableChainsSurvivePartition(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("noBatch=%v", noBatch), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NoBatch = noBatch
			// This test asserts the collapsed window is still visible
			// after a 250 s partition; keep the flow janitor from
			// reclaiming the very state under inspection.
			cfg.FlowIdleTTL = -1
			r := newRig(t, 0, cfg)
			var dropped []int64
			r.a.OnDrop(func(to string, tu *tuple.Tuple, _ DropCause) {
				dropped = append(dropped, tu.Field(1).AsInt())
			})

			// Phase 1: healthy stream grows the window.
			r.sendSpread("b", 20, 0.05)
			r.loop.Run(10)
			if len(r.got) != 20 {
				t.Fatalf("pre-partition delivered %d of 20", len(r.got))
			}
			healthyWindow := dest(r.a, "b").Cwnd
			if healthyWindow <= cfg.WindowInit {
				t.Fatalf("window did not grow while healthy: %v", healthyWindow)
			}

			// Phase 2: cut the link mid-stream and keep sending. The retry
			// budget must exhaust for every queued tuple (the collapsed
			// window serializes frames, each burning ~6 s of backoff at
			// the adapted RTO floor), fire drops, and collapse the window.
			r.net.Partition("a", "b", true)
			r.sendSpread("b", 20, 0.05)
			r.loop.RunFor(250)
			if len(dropped) != 20 {
				t.Fatalf("dropped %d of 20 despite partition outlasting the retry budget", len(dropped))
			}
			if w := dest(r.a, "b").Cwnd; w != 1 {
				t.Fatalf("window = %v under partition, want collapse to 1", w)
			}
			if len(r.got) != 20 {
				t.Fatalf("tuples crossed the partition: %d", len(r.got))
			}

			// Phase 3: heal. Fresh traffic must flow again, exactly once,
			// and the window must regrow from its collapsed state.
			r.net.Partition("a", "b", false)
			before := len(r.got)
			for i := int64(100); i < 120; i++ {
				v := i
				r.loop.At(r.loop.Now()+float64(i-100)*0.05, func() { r.a.Send("b", tp(v)) })
			}
			r.loop.RunFor(60)
			fresh := r.got[before:]
			if len(fresh) != 20 {
				t.Fatalf("post-heal delivered %d of 20", len(fresh))
			}
			seen := map[int64]bool{}
			for _, v := range fresh {
				if v < 100 || seen[v] {
					t.Fatalf("post-heal stream corrupt: %v", fresh)
				}
				seen[v] = true
			}
			if w := dest(r.a, "b").Cwnd; w <= 1 {
				t.Fatalf("window did not recover after heal: %v", w)
			}
			if inFlight(r.a, "b") != 0 || dest(r.a, "b").Backlog != 0 {
				t.Fatalf("stack not quiesced after heal: inflight=%d backlog=%d",
					inFlight(r.a, "b"), dest(r.a, "b").Backlog)
			}
		})
	}
}

// TestSingleLossRetransmitsOnlyTheHole pins the cumulative-ack retry
// discipline: with several datagrams in flight and exactly the first
// one lost, only that one may retransmit — the ack answering it clears
// everything the receiver buffered above the hole. (A per-batch timer
// design would spuriously resend the entire window.)
func TestSingleLossRetransmitsOnlyTheHole(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true
	cfg.WindowInit = 8
	r := newRig(t, 0, cfg)
	r.net.Partition("a", "b", true)
	r.a.Send("b", tp(0))
	r.loop.RunFor(0.01) // the first frame leaves and vanishes in the cut
	r.net.Partition("a", "b", false)
	for i := int64(1); i < 6; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(30)
	r.assertExactlyOnce(t, 6)
	if rx := r.a.Stats().Retransmits; rx != 1 {
		t.Fatalf("retransmits = %d, want exactly 1 (only the lost frame)", rx)
	}
	if inFlight(r.a, "b") != 0 {
		t.Fatal("flight not drained after the hole healed")
	}
}

func TestUnreliableChainUnderPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unreliable = true
	r := newRig(t, 0, cfg)
	r.sendSpread("b", 10, 0.05)
	r.loop.Run(5)
	if len(r.got) != 10 {
		t.Fatalf("pre-partition delivered %d", len(r.got))
	}
	r.net.Partition("a", "b", true)
	r.sendSpread("b", 10, 0.05)
	r.loop.RunFor(5)
	if len(r.got) != 10 {
		t.Fatal("tuples crossed the partition")
	}
	// Fire-and-forget: the cut must leave no state accumulating.
	if inFlight(r.a, "b") != 0 || dest(r.a, "b").Backlog != 0 {
		t.Fatal("unreliable chain accumulated state under partition")
	}
	r.net.Partition("a", "b", false)
	r.sendSpread("b", 10, 0.05)
	r.loop.RunFor(5)
	if len(r.got) != 20 {
		t.Fatalf("post-heal delivered %d of 20 total", len(r.got))
	}
}
