package transport

// Flow-janitor coverage: per-peer transport state must not outlive the
// flow. A Chord node's lookups touch random fingers, so without idle
// eviction every node accumulates sender and receiver state for every
// peer it ever exchanged a datagram with — O(N) per node, O(N²) across
// the deployment, which is what caps scale-out. The janitor reclaims
// idle flows and rides the session-epoch machinery so a resumed flow
// opens a fresh sequence space on both sides with no handshake.

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/simnet"
)

// TestFlowIdleEvictionReclaimsState: after a flow sits idle past the
// TTL, the sender's per-peer state (window, retry ledger, accounting,
// backlog) and — past twice the TTL — the receiver's dedup state are
// reclaimed, and the accounting snapshot stops reporting the peer.
func TestFlowIdleEvictionReclaimsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 10
	// Keep the retransmission horizon (MaxRTO * 2^(MaxRetries+1)) below
	// 2x the TTL so receiver-side eviction is reachable in this test.
	cfg.MaxRTO = 1
	cfg.MaxRetries = 2
	r := newRig(t, 0, cfg)
	for i := int64(0); i < 5; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(5)
	r.assertExactlyOnce(t, 5)
	if p := r.a.peers["b"]; p == nil || p.send == nil || p.send.cc.nextSeq == 0 || p.send.acct.frames == 0 {
		t.Fatal("test needs live flow state to reclaim")
	}

	// One TTL of silence (plus a janitor period): sender-side state
	// goes. b only ever acknowledged, so a holds no receive half for it
	// and the whole record leaves with the send half; the restart count
	// is what remains.
	r.loop.RunFor(2 * cfg.FlowIdleTTL)
	if p := r.a.peers["b"]; p != nil {
		t.Fatalf("idle flow kept its record: %+v", p)
	}
	if got := r.a.retired["b"]; got != 1 {
		t.Fatalf("reclaimed flow retired restart count %d, want 1", got)
	}

	// Two TTLs: receiver-side dedup state goes too, on both nodes.
	r.loop.RunFor(3 * cfg.FlowIdleTTL)
	if p := r.b.peers["a"]; p != nil {
		t.Fatalf("receiver kept dedup state for a flow idle past 2x TTL: %+v", p)
	}
	for _, d := range r.a.PerDest() {
		if d.Addr == "b" {
			t.Fatal("accounting snapshot still reports the reclaimed flow")
		}
	}
}

// flowEpoch is the wire epoch tr's next frame toward addr would carry,
// whether the peer's record is live or only its restart count remains.
func flowEpoch(tr *Transport, addr string) uint32 {
	if p := tr.peers[addr]; p != nil {
		return tr.wireEpoch(p)
	}
	return tr.cfg.Epoch<<16 | uint32(tr.retired[addr])
}

// TestFlowResumesUnderFreshEpoch: a flow resumed after eviction restarts
// its sequence space at 1 under a bumped wire epoch. The receiver —
// whose own state may or may not have aged out — must rebind and
// deliver exactly once; the old stream's suppressed-duplicate blackhole
// must not reappear.
func TestFlowResumesUnderFreshEpoch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 10
	r := newRig(t, 0, cfg)
	for i := int64(0); i < 20; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(5)
	r.assertExactlyOnce(t, 20)
	oldEpoch := flowEpoch(r.a, "b")

	// Idle past one TTL but short of two: the sender's state is gone,
	// the receiver's cum still counts the old stream — the hostile case.
	r.loop.RunFor(1.5 * cfg.FlowIdleTTL)
	for i := int64(100); i < 110; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.RunFor(10)
	r.assertExactlyOnce(t, 30)
	if got := flowEpoch(r.a, "b"); got <= oldEpoch {
		t.Fatalf("resumed flow kept wire epoch %d (was %d), want a bump", got, oldEpoch)
	}
	if fl := inFlight(r.a, "b"); fl != 0 {
		t.Fatalf("resumed flow has %d in flight: its acks were filtered", fl)
	}
	if d := r.a.Stats().Drops; d != 0 {
		t.Fatalf("resumed flow dropped %d tuples", d)
	}
}

// TestFlowEvictionRefusedWhileInFlight: state toward a peer with
// batches still pending retransmission must survive the janitor —
// sequence continuity holds while frames can still reach the peer.
func TestFlowEvictionRefusedWhileInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 1 // far below the ~23 s retry horizon
	r := newRig(t, 0, cfg)
	r.net.Partition("a", "b", true)
	r.a.Send("b", tp(1))
	r.loop.RunFor(3 * cfg.FlowIdleTTL)
	if inFlight(r.a, "b") == 0 {
		t.Fatal("test needs a batch still in flight")
	}
	if p := r.a.peers["b"]; p == nil || p.send == nil || len(p.send.rty.pend) == 0 {
		t.Fatal("janitor reclaimed a flow with batches pending retransmission")
	}
}

// TestFlowIdleTTLDisabled: a negative TTL preserves the historical
// keep-forever behavior.
func TestFlowIdleTTLDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = -1
	r := newRig(t, 0, cfg)
	r.a.Send("b", tp(1))
	r.loop.Run(5)
	r.loop.RunFor(10 * DefaultFlowIdleTTL)
	if p := r.a.peers["b"]; p == nil || p.send == nil || p.send.cc.nextSeq == 0 {
		t.Fatal("flow state reclaimed despite FlowIdleTTL < 0")
	}
	if p := r.b.peers["a"]; p == nil || !p.receiving {
		t.Fatal("receiver state reclaimed despite FlowIdleTTL < 0")
	}
}

// TestPeerStateBoundedByWorkingSet is the stated bound on per-peer flow
// state: it tracks the peers a node is exchanging traffic with, not the
// peers it ever contacted. A hub talks to 1,000 peers, 20 at a time;
// each cohort exchanges traffic both ways for 20 s and then falls
// silent past both TTLs. The hub never holds records for more than two
// cohorts, ends holding exactly the live one, and keeps 16 bits for
// each of the rest.
func TestPeerStateBoundedByWorkingSet(t *testing.T) {
	const total, live, span = 1000, 20, 20.0
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.Domains = 1
	net := simnet.New(loop, scfg)
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 5
	cfg.MaxRTO, cfg.MaxRetries = 1, 2 // receive half lives max(2·5, 1·4) = 10 s
	mk := func(addr string) *Transport {
		var tr *Transport
		ep, err := net.Attach(addr, func(from string, p []byte) { tr.Deliver(from, p) })
		if err != nil {
			t.Fatal(err)
		}
		tr = New(loop, ep, cfg)
		return tr
	}
	hub := mk("hub")
	for c := 0; c < total/live; c++ {
		for i := 0; i < live; i++ {
			addr := fmt.Sprintf("p%04d", c*live+i)
			peer := mk(addr)
			for s := 0.0; s < span; s++ {
				loop.At(float64(c)*span+s, func() {
					hub.Send(addr, tp(0))
					peer.Send("hub", tp(1))
				})
			}
		}
		loop.Run(float64(c+1)*span - 0.5)
		if n := len(hub.peers); n < live || n > 2*live {
			t.Fatalf("cohort %d: hub holds %d records, want the working set (%d..%d)", c, n, live, 2*live)
		}
	}
	if len(hub.peers) != live || len(hub.PerDest()) != live || len(hub.order) != live {
		t.Fatalf("hub ends with %d records, %d rows, %d ordered; want the %d live peers",
			len(hub.peers), len(hub.PerDest()), len(hub.order), live)
	}
	for _, d := range hub.PerDest() {
		if d.Addr < fmt.Sprintf("p%04d", total-live) {
			t.Fatalf("hub still reports %s, a peer of an earlier cohort", d.Addr)
		}
	}
	if len(hub.retired) != total-live {
		t.Fatalf("hub keeps %d restart counts, want one for each of the %d reclaimed peers", len(hub.retired), total-live)
	}
	for addr, bump := range hub.retired {
		if bump != 1 {
			t.Fatalf("reclaimed flow toward %s retired restart count %d, want 1", addr, bump)
		}
	}
}
