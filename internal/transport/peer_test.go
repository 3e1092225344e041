package transport

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestPeerRecordSize pins the per-peer record and its send half at the
// size classes they fill, on each word size: every peer a node talks to
// costs a record, and only the peers it sends to cost a send half.
func TestPeerRecordSize(t *testing.T) {
	peerMax, sendMax := uintptr(96), uintptr(224)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		peerMax, sendMax = 64, 176
	}
	if n := unsafe.Sizeof(peer{}); n > peerMax {
		t.Errorf("peer is %d bytes, want at most %d", n, peerMax)
	}
	if n := unsafe.Sizeof(sendHalf{}); n > sendMax {
		t.Errorf("sendHalf is %d bytes, want at most %d", n, sendMax)
	}
}

// TestReceiveOnlyPeerHasNoSendHalf: a node that only receives data from
// a peer, and acknowledges it with bare acks, never makes a send half
// for it. Its PerDest row reads the initial window and RTO and zero
// send counters, as the row of a fresh send half did, and reading the
// rows into a buffer allocates nothing.
func TestReceiveOnlyPeerHasNoSendHalf(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	for i := int64(0); i < 5; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(5)
	r.assertExactlyOnce(t, 5)
	if r.b.Stats().AcksSent == 0 {
		t.Fatal("test needs b to have acknowledged a")
	}
	p := r.b.peers["a"]
	if p == nil || !p.receiving {
		t.Fatal("b holds no receive half for a")
	}
	if p.send != nil {
		t.Fatalf("b made a send half for a peer it only acknowledged: %+v", p.send)
	}
	const want = "{Addr:a Sent:0 Recvd:5 Bytes:0 Retries:0 Cwnd:4 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}"
	if got := r.b.PerDest(); len(got) != 1 || fmt.Sprintf("%+v", got[0]) != want {
		t.Fatalf("b.PerDest() = %+v, want [%s]", got, want)
	}
	buf := make([]DestStats, 0, 4)
	if n := testing.AllocsPerRun(100, func() { buf = r.b.PerDestInto(buf) }); n != 0 {
		t.Fatalf("PerDestInto allocated %.1f times", n)
	}
}

// TestReclaimDropsSendHalf: the janitor drops an idle send half while
// the record lives on for its receive half, the peer's row reads as a
// receive-only peer's, and the next Send makes a fresh half under a
// bumped wire epoch that the peer accepts exactly once.
func TestReclaimDropsSendHalf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 10
	cfg.MaxRTO, cfg.MaxRetries = 1, 2 // receive half lives max(2·10, 1·4) = 20 s
	r := newRig(t, 0, cfg)
	for i := int64(0); i < 5; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(3)
	r.b.Send("a", tp(0)) // a gains a receive half for b
	r.loop.Run(5)
	r.assertExactlyOnce(t, 5)
	p := r.a.peers["b"]
	if p == nil || p.send == nil || !p.receiving {
		t.Fatal("test needs a record with both halves")
	}
	epoch := r.a.wireEpoch(p)

	// Past the send TTL, short of the receive one.
	r.loop.Run(3 + 1.5*cfg.FlowIdleTTL)
	if r.a.peers["b"] != p {
		t.Fatal("the record left with its send half while its receive half was live")
	}
	if p.send != nil {
		t.Fatalf("the janitor kept an idle send half: %+v", p.send)
	}
	const want = "{Addr:b Sent:0 Recvd:1 Bytes:0 Retries:0 Cwnd:4 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}"
	if got := r.a.PerDest(); len(got) != 1 || fmt.Sprintf("%+v", got[0]) != want {
		t.Fatalf("a.PerDest() after the reclaim = %+v, want [%s]", got, want)
	}

	for i := int64(5); i < 10; i++ {
		r.a.Send("b", tp(i))
	}
	if p.send == nil {
		t.Fatal("Send made no send half")
	}
	if got := r.a.wireEpoch(p); got != epoch+1 {
		t.Fatalf("the resumed flow carries wire epoch %d, want %d", got, epoch+1)
	}
	r.loop.Run(r.loop.Now() + 5)
	r.assertExactlyOnce(t, 10)
	if n := inFlight(r.a, "b"); n != 0 {
		t.Fatalf("%d records of the resumed flow were never acknowledged", n)
	}
}
