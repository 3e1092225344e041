package transport

// Session-epoch coverage: a node restarted at the same address (the
// Deployment.Replace path) begins a fresh sequence space under a higher
// epoch. Peers must rebind their Dedup/Ack state to the new incarnation
// — the regression here is the silent blackhole where the restarted
// sender's sequence numbers fall below the peer's cumulative counter,
// every frame is suppressed as a duplicate, and the cumulative ack
// keeps falsely confirming delivery.

import (
	"testing"

	"p2/internal/eventloop"
	"p2/internal/simnet"
	"p2/internal/tuple"
)

// mkDataFrame assembles a data frame for hostile-input tests through
// the production header encoder.
func mkDataFrame(epoch, ackEpoch uint32, cum, skip, first uint64, tuples ...*tuple.Tuple) []byte {
	buf := appendDataHeader(nil, dataHeader{
		epoch: epoch, ackEpoch: ackEpoch, cumAck: cum, skip: skip, first: first, count: len(tuples),
	})
	for _, t := range tuples {
		buf = append(buf, t.Marshal()...)
	}
	return buf
}

// TestReplaceEpochUnwedgesDedup is the Replace-blackhole regression:
// after a peer restarts at the same address with a higher epoch, its
// restarted sequence numbers (1, 2, ...) sit below the old cumulative
// counter — the receiver must rebind, not suppress.
func TestReplaceEpochUnwedgesDedup(t *testing.T) {
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.Domains = 1
	net := simnet.New(loop, scfg)

	mk := func(addr string, epoch uint32) *Transport {
		var tr *Transport
		ep, err := net.Attach(addr, func(from string, p []byte) { tr.Deliver(from, p) })
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Epoch = epoch
		tr = New(loop, ep, cfg)
		return tr
	}
	a1 := mk("a", 1)
	b := mk("b", 1)
	var got []int64
	b.OnReceive(func(from string, tu *tuple.Tuple) { got = append(got, tu.Field(1).AsInt()) })

	for i := int64(0); i < 20; i++ {
		a1.Send("b", tp(i))
	}
	loop.Run(10)
	if len(got) != 20 {
		t.Fatalf("incarnation 1 delivered %d of 20", len(got))
	}

	// Replace: the first incarnation dies, a new one binds the same
	// address with a higher epoch and a sequence space restarting at 1.
	a1.Close()
	net.Kill("a")
	a2 := mk("a", 2)
	got = got[:0]
	for i := int64(100); i < 110; i++ {
		a2.Send("b", tp(i))
	}
	loop.Run(loop.Now() + 10)
	if len(got) != 10 {
		t.Fatalf("replaced incarnation delivered %d of 10 — dedup state not rebound", len(got))
	}
	if fl := inFlight(a2, "b"); fl != 0 {
		t.Fatalf("new incarnation still has %d in flight: its acks were filtered", fl)
	}
	if d := a2.Stats().Drops; d != 0 {
		t.Fatalf("new incarnation dropped %d tuples", d)
	}
}

// TestStaleEpochFrameDiscarded: once a receiver has rebound to a newer
// incarnation, a delayed datagram from the previous one (reordered in
// flight across the restart) must be discarded outright — neither
// delivered nor allowed to flap the epoch back.
func TestStaleEpochFrameDiscarded(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	// b learns epoch 5 for a.
	r.b.Deliver("a", mkDataFrame(5, 0, 0, 0, 1, tp(1)))
	if len(r.got) != 1 || r.got[0] != 1 {
		t.Fatalf("got %v", r.got)
	}
	// A stale epoch-3 datagram arrives late.
	r.b.Deliver("a", mkDataFrame(3, 0, 0, 0, 2, tp(99)))
	if len(r.got) != 1 {
		t.Fatalf("stale-epoch frame delivered: %v", r.got)
	}
	if rs := r.b.peers["a"].rcv; rs.epoch != 5 || rs.cum != 1 {
		t.Fatalf("stale frame disturbed receive state: epoch=%d cum=%d", rs.epoch, rs.cum)
	}
	// The current incarnation still flows.
	r.b.Deliver("a", mkDataFrame(5, 0, 0, 0, 2, tp(2)))
	if len(r.got) != 2 || r.got[1] != 2 {
		t.Fatalf("current epoch wedged: %v", r.got)
	}
}

// TestStaleEpochAckIgnored: an acknowledgment stamped with another
// incarnation's epoch describes a dead stream and must not clear the
// current one's flight state.
func TestStaleEpochAckIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epoch = 7
	cfg.NoBatch = true
	r := newRig(t, 0, cfg)
	for i := int64(0); i < 3; i++ {
		r.a.Send("ghost", tp(i)) // never acked: stays in flight
	}
	r.loop.RunFor(0)
	inflight := inFlight(r.a, "ghost")
	if inflight == 0 {
		t.Fatal("test needs flight state")
	}

	r.a.Deliver("ghost", appendAck(nil, 6<<16, 1000)) // previous incarnation
	if got := inFlight(r.a, "ghost"); got != inflight {
		t.Fatalf("stale ack cleared flight state: %d -> %d", inflight, got)
	}

	r.a.Deliver("ghost", appendAck(nil, 7<<16, 1000)) // the wire epoch of an unevicted flow
	if got := inFlight(r.a, "ghost"); got != 0 {
		t.Fatalf("current-epoch ack ignored: %d still in flight", got)
	}
}

// TestCorruptFirstSeqBounded: a data frame whose firstSeq sits
// absurdly far above the cumulative counter is corruption; accepting it
// would plant an unreclaimable entry in the out-of-order set and
// suppress the legitimate stream when it reaches those numbers.
func TestCorruptFirstSeqBounded(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.a.Send("b", tp(1))
	r.loop.Run(5)
	r.b.Deliver("a", mkDataFrame(0, 0, 0, 0, 1<<40, tp(66)))
	if len(r.got) != 1 {
		t.Fatalf("hostile frame delivered: %v", r.got)
	}
	if rs := r.b.peers["a"].rcv; len(rs.high) != 0 {
		t.Fatalf("hostile firstSeq poisoned the out-of-order set: %v", rs.high)
	}
	r.a.Send("b", tp(2))
	r.loop.Run(loop10(r))
	if len(r.got) != 2 || r.got[1] != 2 {
		t.Fatalf("stream wedged after hostile frame: %v", r.got)
	}
}

func loop10(r *rig) float64 { return r.loop.Now() + 10 }
