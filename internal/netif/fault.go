package netif

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// Datagram-level fault injection. WithFaults wraps any Network in an
// adversarial layer that drops, duplicates, reorders, and corrupts
// outbound datagrams under seeded per-endpoint randomness, and consults
// a deployment-shared FaultPlane for partitions and runtime-adjustable
// rates. The layer sits below the transport's element chain, so the
// Retry/Ack/Dedup/skip machinery is exercised under exactly the
// conditions it exists for — on a real UDP network as well as in
// simulation.

// FaultConfig seeds the injector. Rates are per-datagram probabilities;
// a zero config injects nothing (but still enforces partitions).
type FaultConfig struct {
	Seed        int64   // per-endpoint streams derive from (Seed, addr)
	DropRate    float64 // datagram vanishes
	DupRate     float64 // datagram sent twice
	ReorderRate float64 // datagram held back reorderDelay, letting later traffic pass
	CorruptRate float64 // a few bytes of the payload are flipped
}

// reorderDelay is how long, in seconds, a reordered datagram is held.
const reorderDelay = 0.05

// FaultStats counts injected faults across a plane.
type FaultStats struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Corrupted  int64
	Cut        int64 // datagrams discarded by an active partition
}

// FaultPlane is the shared fault controller of one deployment: every
// wrapped endpoint consults it on each send. Partitions and rate
// changes apply to all nodes at once, which is what gives a UDP
// deployment a working Deployment.Partition. Safe for concurrent use —
// UDP nodes send from their own event-loop goroutines.
type FaultPlane struct {
	mu           sync.Mutex
	cfg          FaultConfig
	cuts         map[string]bool // "a|b", a < b lexically
	extraLatency float64
	stats        FaultStats
}

// NewFaultPlane builds a plane injecting per cfg.
func NewFaultPlane(cfg FaultConfig) *FaultPlane {
	return &FaultPlane{cfg: cfg, cuts: make(map[string]bool)}
}

// Partition cuts or heals bidirectional connectivity between a and b.
func (p *FaultPlane) Partition(a, b string, cut bool) {
	if a > b {
		a, b = b, a
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cut {
		p.cuts[a+"|"+b] = true
	} else {
		delete(p.cuts, a+"|"+b)
	}
}

// SetDropRate changes the datagram loss probability at runtime — the
// loss-burst fault knob.
func (p *FaultPlane) SetDropRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	p.cfg.DropRate = rate
}

// SetExtraLatency delays every datagram by secs (clamped at 0) — the
// latency-spike fault knob.
func (p *FaultPlane) SetExtraLatency(secs float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if secs < 0 {
		secs = 0
	}
	p.extraLatency = secs
}

// Stats returns a copy of the fault counters.
func (p *FaultPlane) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// verdict is one send's fate, decided under the plane lock in a single
// draw sequence so per-endpoint streams stay reproducible.
type verdict struct {
	cut     bool
	drop    bool
	dup     bool
	corrupt bool
	delay   float64 // extra latency plus any reorder hold-back
}

func (p *FaultPlane) judge(rng *rand.Rand, from, to string) verdict {
	a, b := from, to
	if a > b {
		a, b = b, a
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var v verdict
	if p.cuts[a+"|"+b] {
		p.stats.Cut++
		v.cut = true
		return v
	}
	v.delay = p.extraLatency
	if p.cfg.DropRate > 0 && rng.Float64() < p.cfg.DropRate {
		p.stats.Dropped++
		v.drop = true
		return v
	}
	if p.cfg.CorruptRate > 0 && rng.Float64() < p.cfg.CorruptRate {
		p.stats.Corrupted++
		v.corrupt = true
	}
	if p.cfg.DupRate > 0 && rng.Float64() < p.cfg.DupRate {
		p.stats.Duplicated++
		v.dup = true
	}
	if p.cfg.ReorderRate > 0 && rng.Float64() < p.cfg.ReorderRate {
		p.stats.Reordered++
		v.delay += reorderDelay
	}
	return v
}

// DelayFunc schedules fn after d seconds on the endpoint's event loop.
// Implementations are called from within Send, i.e. on the loop itself.
type DelayFunc func(d float64, fn func())

// faultNet wraps a Network so every attached endpoint injects faults.
type faultNet struct {
	inner Network
	plane *FaultPlane
	delay DelayFunc
}

// WithFaults wraps inner so every endpoint it attaches runs sends
// through plane's injector. delay schedules held-back datagrams
// (reordering, latency spikes) on the node's event loop; nil disables
// delay-based faults (reordered datagrams ship immediately).
func WithFaults(inner Network, plane *FaultPlane, delay DelayFunc) Network {
	return &faultNet{inner: inner, plane: plane, delay: delay}
}

func (f *faultNet) Attach(addr string, deliver DeliverFunc) (Endpoint, error) {
	ep, err := f.inner.Attach(addr, deliver)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(addr))
	return &faultEndpoint{
		inner: ep,
		net:   f,
		rng:   rand.New(rand.NewSource(f.plane.cfg.Seed ^ int64(h.Sum64()))),
	}, nil
}

// faultEndpoint decides each datagram's fate under the endpoint's
// private seeded stream. Send runs on the owning node's event loop, so
// the rng needs no lock.
type faultEndpoint struct {
	inner Endpoint
	net   *faultNet
	rng   *rand.Rand
}

func (e *faultEndpoint) Send(to string, payload []byte) {
	v := e.net.plane.judge(e.rng, e.inner.LocalAddr(), to)
	if v.cut || v.drop {
		return
	}
	p := payload
	if v.corrupt {
		p = append([]byte(nil), payload...)
		flips := 1 + e.rng.Intn(3)
		for i := 0; i < flips && len(p) > 0; i++ {
			p[e.rng.Intn(len(p))] ^= byte(1 + e.rng.Intn(255))
		}
	}
	send := func() {
		e.inner.Send(to, p)
		if v.dup {
			e.inner.Send(to, p)
		}
	}
	if v.delay > 0 && e.net.delay != nil {
		if !v.corrupt {
			// Senders may reuse payload buffers after Send returns, so a
			// held-back datagram must own its bytes (the corrupt path
			// already copied).
			p = append([]byte(nil), payload...)
		}
		e.net.delay(v.delay, send)
		return
	}
	send()
}

func (e *faultEndpoint) LocalAddr() string { return e.inner.LocalAddr() }
func (e *faultEndpoint) Close()            { e.inner.Close() }
