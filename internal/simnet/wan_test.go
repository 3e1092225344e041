package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/netif"
)

// TestLookaheadBoundsMatrix is the lookahead-soundness property at the
// config level: across randomly generated transit-stub topologies,
// Lookahead is the smallest cross-domain base entry — the bound a
// sharded coordinator's epochs are built on — and +Inf with one domain.
func TestLookaheadBoundsMatrix(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := TransitStubWAN(1+rng.Intn(6), 1+rng.Intn(8), seed)
		la := cfg.Lookahead()
		if la <= 0 {
			t.Fatalf("seed %d: Lookahead %g must be positive for sharded runs", seed, la)
		}
		min := math.Inf(1)
		for i, row := range cfg.Matrix {
			for j, v := range row {
				if i != j {
					min = math.Min(min, v)
				}
			}
		}
		if la != min {
			t.Fatalf("seed %d: Lookahead %g, want the minimum cross-domain entry %g", seed, la, min)
		}
	}
	uniform := DefaultConfig()
	if got, want := uniform.Lookahead(), uniform.InterLatency+2*uniform.IntraLatency; got != want {
		t.Fatalf("uniform Lookahead %g, want %g", got, want)
	}
	uniform.Domains = 1
	if got := uniform.Lookahead(); !math.IsInf(got, 1) {
		t.Fatalf("one-domain Lookahead %g, want +Inf", got)
	}
}

// TestLookaheadBoundsSampledDelays drives real datagrams through a WAN
// net — jitter, queuing draws, transit serialization, access-link
// queueing all active — and checks every sampled cross-domain one-way
// delay is at least Lookahead. This is the property that keeps a
// sharded run sound: a staged datagram arriving before the epoch
// barrier that sent it could not be expressed by the barrier exchange.
func TestLookaheadBoundsSampledDelays(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := TransitStubWAN(3, 3, seed)
		cfg.Seed = seed
		loop := eventloop.NewSim()
		net := New(loop, cfg)
		la := cfg.Lookahead()

		const nodes = 12
		type rcpt struct {
			id string
			at float64
		}
		type sendRec struct {
			at    float64
			cross bool
		}
		sent := map[string]sendRec{} // msg id -> send
		var got []rcpt
		eps := make([]netif.Endpoint, nodes)
		addrs := make([]string, nodes)
		for i := 0; i < nodes; i++ {
			addrs[i] = fmt.Sprintf("w%d:p2", i)
			ep, err := net.Attach(addrs[i], func(from string, payload []byte) {
				got = append(got, rcpt{id: string(payload), at: loop.Now()})
			})
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		rng := rand.New(rand.NewSource(seed))
		msg := 0
		for k := 0; k < 40; k++ {
			at := float64(k) * 0.05
			loop.At(at, func() {
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				if a == b {
					b = (b + 1) % nodes
				}
				id := fmt.Sprintf("m%d", msg)
				msg++
				sent[id] = sendRec{at: loop.Now(), cross: net.DomainOf(addrs[a]) != net.DomainOf(addrs[b])}
				eps[a].Send(addrs[b], []byte(id))
			})
		}
		loop.Run(30)
		if len(got) < 30 {
			t.Fatalf("seed %d: only %d/40 datagrams arrived on a lossless net", seed, len(got))
		}
		checked := 0
		for _, r := range got {
			s := sent[r.id]
			if !s.cross {
				continue
			}
			checked++
			if d := r.at - s.at; d < la {
				t.Errorf("seed %d: cross-domain datagram %s delivered after %.6fs < Lookahead %.6fs", seed, r.id, d, la)
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: no cross-domain datagram was sampled", seed)
		}
	}
}

// TestIntraDomainSkipsBarrier checks the sharded send path: a datagram
// between two nodes of one domain is scheduled directly on their shard,
// never staged in the outbox, and arrives at exactly send + latency —
// below Lookahead, so inside the epoch that sent it.
func TestIntraDomainSkipsBarrier(t *testing.T) {
	cfg := TransitStubWAN(2, 2, 5)
	cfg.Jitter = 0  // arrival == send + base latency
	cfg.StubBps = 0 // no serialization delay
	ss := eventloop.NewShardedSim(2, cfg.Lookahead())
	t.Cleanup(ss.Close)
	n := NewSharded(ss, cfg)
	a, b := "s0", ""
	for i := 1; b == ""; i++ {
		if c := fmt.Sprintf("s%d", i); n.DomainOf(c) == n.DomainOf(a) {
			b = c
		}
	}
	barriers := 0
	ss.AddExchanger(exchangerFunc(func(float64) { barriers++ }))
	latency := n.Latency(a, b)
	if latency >= cfg.Lookahead() {
		t.Fatalf("intra-domain latency %g not below Lookahead %g", latency, cfg.Lookahead())
	}
	const sendAt = 0.0005
	loop := n.ShardLoop(a)
	gotAt, gotBarriers := -1.0, -1
	n.Attach(b, func(string, []byte) { gotAt, gotBarriers = loop.Now(), barriers })
	epA, _ := n.Attach(a, func(string, []byte) {})
	sentBarriers := -1
	loop.At(sendAt, func() {
		epA.Send(b, []byte("hi"))
		sentBarriers = barriers
		if q := len(n.shards[n.ShardOf(a)].outbox); q != 0 {
			t.Errorf("intra-domain datagram staged in the outbox (%d queued)", q)
		}
	})
	ss.Run(1)
	if gotAt != sendAt+latency {
		t.Fatalf("arrived at %.9f, want %.9f", gotAt, sendAt+latency)
	}
	if gotBarriers != sentBarriers {
		t.Fatalf("delivery crossed %d barriers after the send", gotBarriers-sentBarriers)
	}
}

type exchangerFunc func(now float64)

func (f exchangerFunc) Exchange(now float64) { f(now) }
