package transport

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"p2/internal/eventloop"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

func tp(n int64) *tuple.Tuple { return tuple.New("t", val.Str("x"), val.Int(n)) }

// rig is a two-node simnet with transports a and b.
type rig struct {
	loop *eventloop.Sim
	net  *simnet.Net
	a, b *Transport
	got  []int64 // payloads delivered at b, in order
}

// newRig builds two transports connected through a simnet with the
// given loss rate, both running the chain cfg selects.
func newRig(t testing.TB, loss float64, cfg Config) *rig {
	t.Helper()
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.LossRate = loss
	scfg.Domains = 1
	net := simnet.New(loop, scfg)
	r := &rig{loop: loop, net: net}

	mkNode := func(addr string) *Transport {
		var tr *Transport
		ep, err := net.Attach(addr, func(from string, payload []byte) {
			tr.Deliver(from, payload)
		})
		if err != nil {
			t.Fatal(err)
		}
		tr = New(loop, ep, cfg)
		return tr
	}
	r.a = mkNode("a")
	r.b = mkNode("b")
	r.b.OnReceive(func(from string, tu *tuple.Tuple) {
		r.got = append(r.got, tu.Field(1).AsInt())
	})
	return r
}

// dest is tr's PerDest row for to, or the row of a peer it holds no
// state for.
func dest(tr *Transport, to string) DestStats {
	for _, d := range tr.PerDest() {
		if d.Addr == to {
			return d
		}
	}
	return DestStats{Addr: to, Cwnd: tr.cfg.WindowInit, RTO: tr.cfg.InitialRTO}
}

// inFlight counts the unacknowledged records toward to.
func inFlight(tr *Transport, to string) int {
	n := 0
	if p := tr.peers[to]; p != nil && p.send != nil {
		for _, wb := range p.send.rty.pend {
			n += len(wb.recs)
		}
	}
	return n
}

// sendSpread submits n tuples from a toward to, spaced dt apart, so
// they cannot all coalesce into one datagram.
func (r *rig) sendSpread(to string, n int, dt float64) {
	for i := 0; i < n; i++ {
		v := int64(i)
		r.loop.At(r.loop.Now()+float64(i)*dt, func() { r.a.Send(to, tp(v)) })
	}
}

// assertExactlyOnce checks 0..n-1 each arrived exactly once.
func (r *rig) assertExactlyOnce(t *testing.T, n int) {
	t.Helper()
	seen := make(map[int64]int)
	for _, v := range r.got {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("duplicate delivery of %d", v)
		}
	}
	if len(r.got) != n {
		t.Fatalf("delivered %d of %d", len(r.got), n)
	}
}

func TestBasicDelivery(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.a.Send("b", tp(1))
	r.a.Send("b", tp(2))
	r.loop.Run(5)
	if len(r.got) != 2 || r.got[0] != 1 || r.got[1] != 2 {
		t.Fatalf("got %v", r.got)
	}
	if r.a.Stats().Retransmits != 0 {
		t.Error("no retransmits expected on clean network")
	}
	// Both tuples were submitted in one handler: one datagram.
	if r.a.Stats().Frames != 1 {
		t.Errorf("frames = %d, want 1 (batched)", r.a.Stats().Frames)
	}
}

func TestBatchingCoalescesOneTurn(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	const n = 40
	for i := int64(0); i < n; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(10)
	r.assertExactlyOnce(t, n)
	st := r.a.Stats()
	if st.TuplesSent != n {
		t.Fatalf("tuples sent = %d", st.TuplesSent)
	}
	if st.Frames >= n/2 {
		t.Fatalf("frames = %d for %d tuples; batching did not coalesce", st.Frames, n)
	}
	// Order is preserved through the batch.
	for i, v := range r.got {
		if v != int64(i) {
			t.Fatalf("out of order at %d: %v", i, r.got)
		}
	}
}

// TestBatchingReducesDatagrams is the acceptance check: at equal
// delivered-tuple counts, the batched chain puts at least 2x fewer
// datagrams on the wire than the unbatched chain.
func TestBatchingReducesDatagrams(t *testing.T) {
	const n = 400
	run := func(cfg Config) (datagrams int64) {
		r := newRig(t, 0, cfg)
		// Bursts of 20, as a rule strand fanning out would produce.
		for burst := 0; burst < n/20; burst++ {
			at := float64(burst) * 0.05
			r.loop.At(at, func() {
				base := int64(burst * 20)
				for i := int64(0); i < 20; i++ {
					r.a.Send("b", tp(base+i))
				}
			})
		}
		r.loop.Run(30)
		r.assertExactlyOnce(t, n)
		return r.net.TotalStats().PacketsSent
	}
	batched := run(DefaultConfig())
	plain := func() Config { c := DefaultConfig(); c.NoBatch = true; return c }()
	unbatched := run(plain)
	if batched*2 > unbatched {
		t.Fatalf("batched chain used %d datagrams, unbatched %d; want >= 2x reduction",
			batched, unbatched)
	}
}

// TestCumulativeAckPiggyback drives request/response traffic and checks
// the reverse-path data frames carry the acks instead of bare ack
// datagrams.
func TestCumulativeAckPiggyback(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	// b answers every delivery with a tuple back to a.
	r.b.OnReceive(func(from string, tu *tuple.Tuple) {
		r.b.Send(from, tp(100+tu.Field(1).AsInt()))
	})
	var backAtA int
	r.a.OnReceive(func(string, *tuple.Tuple) { backAtA++ })
	for round := 0; round < 10; round++ {
		at := float64(round) * 0.5
		r.loop.At(at, func() { r.a.Send("b", tp(int64(round))) })
	}
	r.loop.Run(20)
	if backAtA != 10 {
		t.Fatalf("replies at a = %d", backAtA)
	}
	bs := r.b.Stats()
	if bs.AcksPiggybacked == 0 {
		t.Fatalf("no piggybacked acks despite reverse-path data: %+v", bs)
	}
	if bs.AcksSent >= bs.AcksPiggybacked {
		t.Fatalf("bare acks (%d) should be rarer than piggybacked (%d) under request/response",
			bs.AcksSent, bs.AcksPiggybacked)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true // many datagrams, so loss certainly hits some
	r := newRig(t, 0.3, cfg)
	r.sendSpread("b", 50, 0.05)
	r.loop.Run(120)
	r.assertExactlyOnce(t, 50)
	if r.a.Stats().Retransmits == 0 {
		t.Error("expected retransmissions under loss")
	}
}

func TestHeavyLossEventualDelivery(t *testing.T) {
	// Property-style: for several loss rates and both chain shapes,
	// everything sent under the retry budget's coverage eventually
	// arrives exactly once.
	for _, noBatch := range []bool{false, true} {
		for _, loss := range []float64{0.1, 0.2, 0.4} {
			cfg := DefaultConfig()
			cfg.NoBatch = noBatch
			r := newRig(t, loss, cfg)
			const n = 30
			r.sendSpread("b", n, 0.1)
			r.loop.Run(300)
			if len(r.got) < n-2 { // 0.4^5 per-datagram loss, allow slack
				t.Errorf("noBatch=%v loss %.1f: delivered %d of %d", noBatch, loss, len(r.got), n)
			}
			seen := map[int64]int{}
			for _, v := range r.got {
				if seen[v]++; seen[v] > 1 {
					t.Errorf("noBatch=%v loss %.1f: duplicate %d", noBatch, loss, v)
				}
			}
		}
	}
}

func TestGiveUpAfterRetries(t *testing.T) {
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	var tr *Transport
	ep, _ := net.Attach("a", func(from string, p []byte) { tr.Deliver(from, p) })
	tr = New(loop, ep, DefaultConfig())
	var dropped []*tuple.Tuple
	tr.OnDrop(func(to string, tu *tuple.Tuple, _ DropCause) { dropped = append(dropped, tu) })
	tr.Send("ghost", tp(9)) // destination never attached
	loop.Run(300)
	if len(dropped) != 1 {
		t.Fatalf("dropped = %d, want 1", len(dropped))
	}
	if tr.Stats().Drops != 1 {
		t.Fatal("drop counter wrong")
	}
	if inFlight(tr, "ghost") != 0 {
		t.Fatal("inflight must be cleared after giving up")
	}
}

func TestCongestionWindowGrowsAndShrinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true // several datagrams in flight grow the window faster
	r := newRig(t, 0, cfg)
	w0 := dest(r.a, "b").Cwnd
	r.sendSpread("b", 40, 0.01)
	r.loop.Run(30)
	if dest(r.a, "b").Cwnd <= w0 {
		t.Fatalf("window did not grow: %v -> %v", w0, dest(r.a, "b").Cwnd)
	}
	grown := dest(r.a, "b").Cwnd
	// Sends into a black hole must collapse that window via timeouts.
	r.a.Send("ghost", tp(1))
	r.loop.Run(100)
	if dest(r.a, "ghost").Cwnd >= grown {
		t.Fatalf("timeout should shrink ghost window: %v", dest(r.a, "ghost").Cwnd)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true
	r := newRig(t, 0, cfg)
	for i := int64(0); i < 200; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.RunFor(0) // run the deferred flush only: no time for acks
	inflight := inFlight(r.a, "b")
	if float64(inflight) > cfg.WindowInit {
		t.Fatalf("inflight %d exceeds initial window %v", inflight, cfg.WindowInit)
	}
	if dest(r.a, "b").Backlog != 200-inflight {
		t.Fatalf("backlog = %d, want %d", dest(r.a, "b").Backlog, 200-inflight)
	}
	r.loop.Run(60)
	r.assertExactlyOnce(t, 200)
}

func TestBacklogOverflowDrops(t *testing.T) {
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	var tr *Transport
	ep, _ := net.Attach("a", func(from string, p []byte) { tr.Deliver(from, p) })
	cfg := DefaultConfig()
	cfg.QueueCap = 5
	tr = New(loop, ep, cfg)
	for i := int64(0); i < 50; i++ {
		tr.Send("ghost", tp(i))
	}
	if tr.Stats().QueueDrops == 0 {
		t.Fatal("expected backlog drops")
	}
}

func TestRTOAdaptsToRTT(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	before := dest(r.a, "b").RTO
	r.sendSpread("b", 20, 0.2)
	r.loop.Run(30)
	after := dest(r.a, "b").RTO
	// Intra-domain RTT is a few ms (plus the delayed-ack wait); the RTO
	// should fall from the initial 1 s to the configured floor.
	if after >= before {
		t.Fatalf("rto did not adapt: %v -> %v", before, after)
	}
	if after != DefaultConfig().MinRTO {
		t.Fatalf("rto = %v, want clamp at MinRTO", after)
	}
}

func TestDuplicateSuppressionOnAckLoss(t *testing.T) {
	// With loss, some acks vanish; the sender retransmits and the
	// receiver must suppress the duplicate payload.
	r := newRig(t, 0.4, DefaultConfig())
	r.sendSpread("b", 20, 0.1)
	r.loop.Run(200)
	seen := map[int64]bool{}
	for _, v := range r.got {
		if seen[v] {
			t.Fatalf("duplicate %d delivered to app", v)
		}
		seen[v] = true
	}
}

func TestAccountingTap(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	epA, epB := &tapEndpoint{Endpoint: r.a.ep}, &tapEndpoint{Endpoint: r.b.ep}
	r.a.ep, r.b.ep = epA, epB
	var taps, bytes int
	r.a.OnSent(func(to string, tu *tuple.Tuple, wire int, rexmit bool) {
		taps++
		bytes += wire
	})
	r.a.Send("b", tp(1))
	r.loop.Run(5)
	if taps != 1 || bytes <= tp(1).EncodedSize() {
		t.Fatalf("taps=%d bytes=%d", taps, bytes)
	}
	// Multi-tuple frames tap once per tuple, and the first tuple of each
	// frame is charged the header bytes actually written (they vary with
	// the sequence numbers): the sizes sum to the exact data bytes on the
	// wire, by the transport's own ledger and by the network's.
	for i := int64(0); i < 5; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(5)
	if taps != 6 {
		t.Fatalf("taps = %d, want 6", taps)
	}
	if st := r.a.PerDest(); int64(bytes) != st[0].Bytes {
		t.Fatalf("tap bytes %d do not sum to the %d wire bytes PerDest reports", bytes, st[0].Bytes)
	}
	// a sent nothing but those two data frames (b never sends data, so a
	// owes no acks): a handed the network the same bytes, and the network
	// carried what a and b handed it plus its own per-packet header.
	if sent := sentBytes(epA); int64(bytes) != sent {
		t.Fatalf("tap bytes %d do not sum to the %d bytes a sent", bytes, sent)
	}
	ns := r.net.TotalStats()
	if carried := ns.BytesSent - ns.PacketsSent*simnet.HeaderBytes; carried != sentBytes(epA)+sentBytes(epB) {
		t.Fatalf("simnet carried %d bytes, a and b sent %d", carried, sentBytes(epA)+sentBytes(epB))
	}
}

// sentBytes sums the datagrams sent through e.
func sentBytes(e *tapEndpoint) int64 {
	var n int64
	for _, p := range e.sent {
		n += int64(len(p))
	}
	return n
}

func TestUnreliableMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Unreliable = true
	r := newRig(t, 0, cfg)
	r.a.Send("b", tp(5))
	r.loop.Run(5)
	if len(r.got) != 1 || r.got[0] != 5 {
		t.Fatalf("got %v", r.got)
	}
	if r.b.Stats().AcksSent != 0 || r.b.Stats().AcksPiggybacked != 0 {
		t.Fatal("unreliable chain must not ack")
	}
	if inFlight(r.a, "b") != 0 {
		t.Fatal("unreliable chain must not track flight state")
	}
	// The unreliable chain still batches.
	for i := int64(0); i < 20; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(5)
	if fr := r.a.Stats().Frames; fr != 2 {
		t.Fatalf("frames = %d, want 2 (one per burst)", fr)
	}
}

func TestCorruptFrameIgnored(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.a.Send("b", tp(1))
	r.loop.Run(5)
	good := mkDataFrame(0, 0, 0, 1, 2, tp(7))
	ack := appendAck(nil, 0, 1)
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	// raw spells a one-record data frame field by field, so a case can
	// break exactly one of them: good is raw with every field honest.
	raw := func(epochHi, cum, count []byte, rec ...byte) []byte {
		return slices.Concat([]byte{frameData}, epochHi, uv(0), uv(0), uv(0), cum, uv(2), uv(0), count, rec)
	}
	rec := tp(7).Marshal()
	if !bytes.Equal(raw(uv(0), uv(0), uv(1), rec...), good) {
		t.Fatal("raw() does not spell the frame the encoder writes")
	}
	for name, frame := range map[string][]byte{
		"empty":                 {},
		"unknown type":          {9, 0, 0},
		"truncated header":      good[:5],
		"truncated ack":         ack[:len(ack)-1],
		"ack with a tail":       append(ack[:len(ack):len(ack)], 0),
		"truncated record":      good[:len(good)-1],
		"bytes after records":   append(good[:len(good):len(good)], 0),
		"garbage record":        raw(uv(0), uv(0), uv(1), 0xff, 0xff, 0xff),
		"count beyond the data": raw(uv(0), uv(0), uv(40), rec...),
		"count beyond the cap":  raw(uv(0), uv(0), uv(maxBatchRecords+1), make([]byte, 3*maxBatchRecords)...),
		"epoch half too wide":   raw(uv(0x10000), uv(0), uv(1), rec...),
		"overflowing varint":    raw(uv(0), append(bytes.Repeat([]byte{0xff}, 9), 2), uv(1), rec...),
		"non-minimal varint":    raw(uv(0), []byte{0x80, 0}, uv(1), rec...),
		"huge arity":            raw(uv(0), uv(0), uv(1), 1, 't', 0xff, 0xff, 0x03),
		"huge string length":    raw(uv(0), uv(0), uv(1), 1, 't', 1, byte(val.KStr), 0xff, 0xff, 0xff, 0xff, 0x0f),
	} {
		r.b.Deliver("a", frame)
		if cum := r.b.peers["a"].rcv.cum; len(r.got) != 1 || cum != 1 {
			t.Fatalf("%s: corrupt frame was not dropped whole: got %v, cum %d", name, r.got, cum)
		}
	}
	// The frame the cases were cut from is itself well-formed.
	r.b.Deliver("a", good)
	if len(r.got) != 2 || r.got[1] != 7 {
		t.Fatalf("well-formed frame dropped: %v", r.got)
	}
}

func TestCloseStopsActivity(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.a.Send("b", tp(1))
	r.a.Close()
	r.a.Send("b", tp(2))
	r.loop.Run(10)
	// Nothing flushed after close reaches the wire.
	for _, v := range r.got {
		if v == 2 {
			t.Fatal("send after close delivered")
		}
	}
	if r.a.String() == "" {
		t.Fatal("String() should describe state")
	}
	if pd := r.a.PerDest(); len(pd) != 0 {
		t.Fatalf("closed transport still reports peers: %+v", pd)
	}
}

// TestCloseDropsBacklogAndInflight is the regression test for silent
// Close: every tuple still queued or in flight must surface through
// OnDrop, and a closed transport must hold no receiver state.
func TestCloseDropsBacklogAndInflight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true // one tuple per datagram: window 4 in flight, rest backlogged
	r := newRig(t, 0, cfg)
	var dropped []int64
	r.a.OnDrop(func(to string, tu *tuple.Tuple, _ DropCause) {
		if to != "b" {
			t.Errorf("drop reported for %q", to)
		}
		dropped = append(dropped, tu.Field(1).AsInt())
	})
	// b has sent to a, so a holds receiver state.
	r.b.Send("a", tp(99))
	r.loop.Run(1)
	for i := int64(0); i < 10; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.RunFor(0) // flush: 4 in flight, 6 backlogged, none acked yet
	inflight, backlog := inFlight(r.a, "b"), dest(r.a, "b").Backlog
	if inflight == 0 || backlog == 0 {
		t.Fatalf("test needs both flight (%d) and backlog (%d)", inflight, backlog)
	}
	r.a.Close()
	if len(dropped) != inflight+backlog {
		t.Fatalf("onDrop fired %d times, want %d", len(dropped), inflight+backlog)
	}
	seen := map[int64]bool{}
	for _, v := range dropped {
		if seen[v] {
			t.Fatalf("tuple %d dropped twice", v)
		}
		seen[v] = true
	}
	// Every record is gone, receiver state from b included: PerDest
	// reports nothing.
	if pd := r.a.PerDest(); len(pd) != 0 {
		t.Fatalf("closed transport still holds peer state: %+v", pd)
	}
	r.loop.Run(60) // pending retransmit timers must all be inert
	if r.a.Stats().Drops != 0 {
		t.Fatal("close drops must not count as retry-budget drops")
	}
}

// TestCorruptSkipIgnored: a data frame whose skip field is absurd
// (>= its own firstSeq — a well-formed sender always keeps skip below
// the frame it is transmitting) must not drag the cumulative counter
// forward, which would suppress all future legitimate traffic.
func TestCorruptSkipIgnored(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.a.Send("b", tp(1))
	r.loop.Run(5)
	// On the wire the field is the gap firstSeq-1-skip; a skip at or
	// above firstSeq is a gap of firstSeq or more, and both spellings
	// must be refused.
	r.b.Deliver("a", mkDataFrame(0, 0, 0, 1<<63, 500, tp(9)))
	gap := binary.AppendUvarint(nil, 500)
	frame := append([]byte{frameData, 0, 0, 0, 0, 0}, binary.AppendUvarint(nil, 501)...)
	frame = append(append(append(frame, gap...), 1), tp(10).Marshal()...)
	r.b.Deliver("a", frame)
	if cum := r.b.peers["a"].rcv.cum; cum != 1 {
		t.Fatalf("hostile skip dragged cum to %d", cum)
	}
	// Later in-order traffic still flows: cum was not wedged at 2^63.
	r.a.Send("b", tp(2))
	r.loop.Run(10)
	want := []int64{1, 9, 10, 2}
	if !slices.Equal(r.got, want) {
		t.Fatalf("got %v, want %v", r.got, want)
	}
}

// TestAdvanceLargeSkipIsBounded: advance must sweep the out-of-order
// set, never iterate the (untrusted) sequence range.
func TestAdvanceLargeSkipIsBounded(t *testing.T) {
	rs := &recvState{high: map[uint64]bool{5: true, 1 << 40: true}}
	done := make(chan struct{})
	go func() { rs.advance(1 << 62); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("advance iterated the sequence range instead of the set")
	}
	if rs.cum != 1<<62 || len(rs.high) != 0 {
		t.Fatalf("advance state: cum=%d high=%v", rs.cum, rs.high)
	}
}

func TestRecvStateCumulativeCompaction(t *testing.T) {
	rs := &recvState{}
	rs.mark(2, 2) // seqs 2,3 out of order: the set is made here
	if rs.cum != 0 || len(rs.high) != 2 {
		t.Fatalf("out-of-order state wrong: cum=%d high=%v", rs.cum, rs.high)
	}
	rs.mark(1, 1)
	if rs.cum != 3 || len(rs.high) != 0 {
		t.Fatalf("compaction failed: cum=%d high=%v", rs.cum, rs.high)
	}
	if !rs.seen(2) || rs.seen(4) {
		t.Fatal("seen() wrong")
	}
}

// TestStringRendersChain: String names the chain the configuration
// composed, and the unreliable configuration composes the short one.
func TestStringRendersChain(t *testing.T) {
	ucfg := DefaultConfig()
	ucfg.Unreliable = true
	full, short := newRig(t, 0, DefaultConfig()).a.String(), newRig(t, 0, ucfg).a.String()
	if !strings.Contains(full, "Serialize→Batch→CCTx→Retry→Frame / Deframe→Ack→Dedup→Deliver") {
		t.Fatalf("default chain renders as %q", full)
	}
	if !strings.Contains(short, "Serialize→Batch→Frame / Deframe→Deliver") {
		t.Fatalf("unreliable config must select the short chain, renders as %q", short)
	}
}
