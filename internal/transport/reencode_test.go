package transport

import (
	"bytes"
	"fmt"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/id"
	"p2/internal/netif"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// tapEndpoint wraps an endpoint and keeps a copy of every datagram
// sent through it, and its destination.
type tapEndpoint struct {
	netif.Endpoint
	sent [][]byte
	to   []string
}

func (e *tapEndpoint) Send(to string, p []byte) {
	e.sent = append(e.sent, bytes.Clone(p))
	e.to = append(e.to, to)
	e.Endpoint.Send(to, p)
}

// TestDeferredFlushesKeepArmingOrder: each peer's first Send in a
// handler queues one deferred flush, and the flushes run in arming
// order, interleaved with the handler's other deferred calls exactly
// as if each had deferred a closure of its own.
func TestDeferredFlushesKeepArmingOrder(t *testing.T) {
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	var tr *Transport
	ep, err := net.Attach("self", func(from string, p []byte) { tr.Deliver(from, p) })
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapEndpoint{Endpoint: ep}
	tr = New(loop, tap, DefaultConfig())
	var order []string
	loop.At(1, func() {
		tr.Send("c", tp(1))
		loop.Defer(func() { order = append(order, fmt.Sprint("defer after ", tap.to)) })
		tr.Send("a", tp(2))
		tr.Send("c", tp(3)) // already armed: rides c's flush
		tr.Send("b", tp(4))
	})
	loop.RunFor(1)
	order = append(order, fmt.Sprint("end ", tap.to))
	want := []string{"defer after [c]", "end [c a b]"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("sends and deferred calls ran as %q, want %q", order, want)
	}
}

// TestRetransmitReencodesIdentically: records hold tuples, not bytes,
// so every retransmission encodes its tuples again. Over a lossy link
// that forces retransmits, each record's bytes in a retransmitted frame
// must equal those of its first transmission, and OnSent's sizes must
// still sum to the data bytes on the wire.
func TestRetransmitReencodesIdentically(t *testing.T) {
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.Domains = 1
	scfg.LossRate = 0.3
	net := simnet.New(loop, scfg)
	var a, b *Transport
	epA, err := net.Attach("a", func(from string, p []byte) { a.Deliver(from, p) })
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapEndpoint{Endpoint: epA}
	a = New(loop, tap, DefaultConfig())
	epB, err := net.Attach("b", func(from string, p []byte) { b.Deliver(from, p) })
	if err != nil {
		t.Fatal(err)
	}
	b = New(loop, epB, DefaultConfig())
	tapped := 0
	a.OnSent(func(_ string, _ *tuple.Tuple, wire int, _ bool) { tapped += wire })

	// Every value kind, and bursts of varying size so frames carry one
	// record or several.
	for i := 0; i < 60; i++ {
		i := i
		loop.At(float64(i)*0.05, func() {
			for k := 0; k <= i%4; k++ {
				n := int64(i*4 + k)
				a.Send("b", tuple.New("rec", val.Str(fmt.Sprint("n", n)), val.Int(n),
					val.MakeID(id.Hash(fmt.Sprint(n))), val.Time(float64(n)/8), val.Null, val.Bool(n%2 == 0)))
			}
		})
	}
	loop.Run(300)

	if a.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions; raise the loss rate")
	}
	type key struct {
		epoch uint32
		seq   uint64
	}
	first := make(map[key][]byte)
	again, onWire := 0, 0
	for _, f := range tap.sent {
		if f[0] != frameData {
			continue
		}
		onWire += len(f)
		h, rest, ok := parseDataHeader(f[1:])
		if !ok {
			t.Fatalf("malformed frame %x", f)
		}
		for i := 0; i < h.count; i++ {
			_, n, err := tuple.Unmarshal(rest)
			if err != nil {
				t.Fatal(err)
			}
			k := key{h.epoch, h.first + uint64(i)}
			if prev, ok := first[k]; !ok {
				first[k] = rest[:n]
			} else if again++; !bytes.Equal(prev, rest[:n]) {
				t.Fatalf("record %d retransmitted as %x, first sent as %x", k.seq, rest[:n], prev)
			}
			rest = rest[n:]
		}
	}
	if int64(again) != a.Stats().Retransmits {
		t.Fatalf("%d records seen again on the wire, Stats counts %d retransmits", again, a.Stats().Retransmits)
	}
	if tapped != onWire {
		t.Fatalf("OnSent sizes sum to %d, data frames carried %d bytes", tapped, onWire)
	}
}

// TestBacklogBoundedPerPeer pins Config.QueueCap's stated bound: with
// every window closed, a node queues at most QueueCap tuples toward
// each peer with a send half, and every tuple past that is refused and
// reported exactly once, as BacklogOverflow.
func TestBacklogBoundedPerPeer(t *testing.T) {
	const peers, queueCap, perTurn, turns = 50, 8, 12, 8
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	var tr *Transport
	ep, err := net.Attach("a", func(from string, p []byte) { tr.Deliver(from, p) })
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.QueueCap = queueCap
	tr = New(loop, ep, cfg)
	dropped := make(map[*tuple.Tuple]int)
	tr.OnDrop(func(_ string, tu *tuple.Tuple, cause DropCause) {
		if cause != BacklogOverflow {
			t.Fatalf("dropped with cause %v, want BacklogOverflow", cause)
		}
		dropped[tu]++
	})

	// The peers never attached, so nothing is ever acknowledged: each
	// window fills with WindowInit batches and then stays closed (the
	// loop never reaches the first retransmission timeout).
	sent := 0
	for turn := 0; turn < turns; turn++ {
		loop.At(loop.Now(), func() {
			for p := 0; p < peers; p++ {
				for k := 0; k < perTurn; k++ {
					tr.Send(fmt.Sprint("ghost", p), tp(int64(sent)))
					sent++
				}
			}
		})
		loop.RunFor(0)
	}

	total := 0
	for p := 0; p < peers; p++ {
		to := fmt.Sprint("ghost", p)
		if got := dest(tr, to).Backlog; got != queueCap {
			t.Fatalf("backlog toward %s = %d, want QueueCap %d", to, got, queueCap)
		}
		total += dest(tr, to).Backlog + inFlight(tr, to)
	}
	for tu, n := range dropped {
		if n != 1 {
			t.Fatalf("%v reported dropped %d times", tu, n)
		}
	}
	st := tr.Stats()
	if len(dropped) == 0 || int64(len(dropped)) != st.QueueDrops || st.Dropped[BacklogOverflow] != st.QueueDrops || dropTotal(st.Dropped) != st.QueueDrops {
		t.Fatalf("%d tuples reported dropped, QueueDrops %d, Dropped %v", len(dropped), st.QueueDrops, st.Dropped)
	}
	var perDest int64
	for _, d := range tr.PerDest() {
		perDest += d.Drops[BacklogOverflow]
	}
	if perDest != st.QueueDrops {
		t.Fatalf("per-peer BacklogOverflow counts sum to %d, QueueDrops %d", perDest, st.QueueDrops)
	}
	if total+len(dropped) != sent {
		t.Fatalf("%d queued or in flight + %d dropped != %d sent", total, len(dropped), sent)
	}
}
