package simnet

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
)

// TestDeliveryAllocatesOnlyThePayloadCopy pins a delivered datagram at
// one allocation, Send's copy of the payload: the arrival carrying it
// and the Timer scheduling it are pooled. Sharded, the datagrams cross
// shards through the barrier merge; single-loop, they take the
// send-time short-circuit path.
func TestDeliveryAllocatesOnlyThePayloadCopy(t *testing.T) {
	const burst = 32
	cfg := DefaultConfig()
	cfg.Domains = 2
	cfg.StubBps = 1e9 // keep the access-link queue from growing across epochs
	payload := make([]byte, 100)

	t.Run("sharded", func(t *testing.T) {
		ss := eventloop.NewShardedSim(2, cfg.Lookahead())
		defer ss.Close()
		n := NewSharded(ss, cfg)
		a, b := "a0", ""
		for i := 0; b == ""; i++ {
			if c := fmt.Sprint("b", i); n.ShardOf(c) != n.ShardOf(a) {
				b = c
			}
		}
		got := 0
		epA, _ := n.Attach(a, func(string, []byte) {})
		n.Attach(b, func(string, []byte) { got++ })
		loopA := n.ShardLoop(a)
		var tick func()
		tick = func() {
			for i := 0; i < burst; i++ {
				epA.Send(b, payload)
			}
			loopA.AfterFree(cfg.Lookahead(), tick)
		}
		loopA.AfterFree(0, tick)
		epoch := func() { ss.RunFor(cfg.Lookahead()) }
		for range 8 {
			epoch() // grow the pools, the outboxes and the merge buffer
		}
		before := got
		allocs := testing.AllocsPerRun(100, epoch)
		if got-before < 100*burst {
			t.Fatalf("%d datagrams delivered in 101 epochs, want at least %d", got-before, 100*burst)
		}
		if perDatagram := allocs / burst; perDatagram > 1 {
			t.Fatalf("sharded delivery allocates %.2f times per datagram, want 1", perDatagram)
		}
	})

	t.Run("single-loop", func(t *testing.T) {
		loop := eventloop.NewSim()
		n := New(loop, cfg)
		got := 0
		epA, _ := n.Attach("a", func(string, []byte) {})
		n.Attach("b", func(string, []byte) { got++ })
		round := func() {
			for i := 0; i < burst; i++ {
				epA.Send("b", payload)
			}
			loop.RunFor(1)
		}
		for range 8 {
			round()
		}
		before := got
		allocs := testing.AllocsPerRun(100, round)
		if got-before != 101*burst {
			t.Fatalf("%d datagrams delivered in 101 rounds, want %d", got-before, 101*burst)
		}
		if perDatagram := allocs / burst; perDatagram > 1 {
			t.Fatalf("single-loop delivery allocates %.2f times per datagram, want 1", perDatagram)
		}
	})
}
