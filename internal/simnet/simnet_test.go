package simnet

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/netif"
)

// attach registers addr and returns the endpoint plus a pointer to the
// slice of (from, payload) deliveries it has observed.
func attach(t *testing.T, n *Net, addr string) (netif.Endpoint, *[]string) {
	t.Helper()
	var got []string
	ep, err := n.Attach(addr, func(from string, payload []byte) {
		got = append(got, from+":"+string(payload))
	})
	if err != nil {
		t.Fatalf("attach %s: %v", addr, err)
	}
	_ = ep
	// The slice header changes as it grows; capture through a closure.
	return ep, &got
}

func twoNodeNet(t *testing.T, cfg Config) (*eventloop.Sim, *Net, netif.Endpoint, *[]string, netif.Endpoint, *[]string) {
	t.Helper()
	loop := eventloop.NewSim()
	n := New(loop, cfg)
	epA, gotA := attach(t, n, "a")
	epB, gotB := attach(t, n, "b")
	return loop, n, epA, gotA, epB, gotB
}

func TestDeliveryWithLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Domains = 1 // same domain: intra latency
	loop, _, epA, _, _, gotB := twoNodeNet(t, cfg)
	epA.Send("b", []byte("hello"))
	loop.Run(0.001)
	if len(*gotB) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	loop.Run(1)
	if len(*gotB) != 1 || (*gotB)[0] != "a:hello" {
		t.Fatalf("gotB = %v", *gotB)
	}
}

func TestCrossDomainSlower(t *testing.T) {
	cfg := DefaultConfig()
	loop := eventloop.NewSim()
	n := New(loop, cfg)
	// Find two addrs in same and different domains by probing placement.
	var sameA, sameB, crossB string
	base := "probe0"
	n.Attach(base, func(string, []byte) {})
	baseDomain := n.lookup(base).domain
	for i := 1; i < 100 && (sameB == "" || crossB == ""); i++ {
		addr := "probe" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		n.Attach(addr, func(string, []byte) {})
		if n.lookup(addr).domain == baseDomain && sameB == "" {
			sameB = addr
		} else if n.lookup(addr).domain != baseDomain && crossB == "" {
			crossB = addr
		}
	}
	sameA = base
	if sameB == "" || crossB == "" {
		t.Skip("placement did not produce both cases")
	}
	if n.Latency(sameA, sameB) >= n.Latency(sameA, crossB) {
		t.Fatalf("intra %v should be < inter %v",
			n.Latency(sameA, sameB), n.Latency(sameA, crossB))
	}
	// Latency is a pure function of hashed domain placement, so it is
	// defined (and stable) even for addresses that never attached.
	if got := n.Latency(sameA, "unknown"); got != cfg.IntraLatency && got != cfg.InterLatency+2*cfg.IntraLatency {
		t.Errorf("unknown addr latency %v is off the topology", got)
	}
}

func TestDoubleAttachFails(t *testing.T) {
	loop := eventloop.NewSim()
	n := New(loop, DefaultConfig())
	if _, err := n.Attach("a", func(string, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a", func(string, []byte) {}); err == nil {
		t.Fatal("second attach must fail")
	}
}

func TestReattachAfterKill(t *testing.T) {
	loop := eventloop.NewSim()
	n := New(loop, DefaultConfig())
	n.Attach("a", func(string, []byte) {})
	n.Kill("a")
	if n.Alive("a") {
		t.Fatal("killed node reported alive")
	}
	if _, err := n.Attach("a", func(string, []byte) {}); err != nil {
		t.Fatalf("reattach after kill: %v", err)
	}
	if !n.Alive("a") {
		t.Fatal("reattached node should be alive")
	}
	_ = loop
}

func TestKillDropsTraffic(t *testing.T) {
	loop, n, epA, gotA, epB, gotB := twoNodeNet(t, DefaultConfig())
	n.Kill("b")
	epA.Send("b", []byte("x")) // into the void
	loop.Run(1)
	if len(*gotB) != 0 {
		t.Fatal("dead node received traffic")
	}
	// Dead node cannot send either.
	epB.Send("a", []byte("y"))
	loop.Run(2)
	if len(*gotA) != 0 {
		t.Fatal("dead node sent traffic")
	}
	// The lost datagram is charged where it landed: to the dead
	// destination, not the sender.
	if la, lb := n.Stats("a").PacketsLost, n.Stats("b").PacketsLost; la != 0 || lb != 1 {
		t.Fatalf("lost = %d at a, %d at b; want 0 and 1", la, lb)
	}
	if lost := n.TotalStats().PacketsLost; lost != 1 {
		t.Fatalf("total lost = %d, want 1", lost)
	}
}

// TestDomainOfIsInRange: placement hashes to a domain in [0, Domains)
// whatever the width of int, so a node's shard is a valid index on
// 32-bit platforms too.
func TestDomainOfIsInRange(t *testing.T) {
	cfg := DefaultConfig()
	for i := 0; i < 64; i++ {
		addr := fmt.Sprintf("n%d:p2", i)
		if d := cfg.DomainOf(addr); d < 0 || d >= cfg.Domains {
			t.Fatalf("DomainOf(%q) = %d, want one of [0, %d)", addr, d, cfg.Domains)
		}
	}
}

func TestInFlightToKilledNodeVanishes(t *testing.T) {
	loop, n, epA, _, _, gotB := twoNodeNet(t, DefaultConfig())
	epA.Send("b", []byte("x"))
	// Kill b while the datagram is in flight.
	loop.At(0.0001, func() { n.Kill("b") })
	loop.Run(5)
	if len(*gotB) != 0 {
		t.Fatal("in-flight datagram delivered to dead node")
	}
}

func TestPartition(t *testing.T) {
	loop, n, epA, _, _, gotB := twoNodeNet(t, DefaultConfig())
	n.Partition("a", "b", true)
	epA.Send("b", []byte("x"))
	loop.Run(1)
	if len(*gotB) != 0 {
		t.Fatal("partitioned traffic delivered")
	}
	n.Partition("b", "a", false) // heal, order-insensitive
	epA.Send("b", []byte("y"))
	loop.Run(2)
	if len(*gotB) != 1 {
		t.Fatal("healed partition still cut")
	}
}

func TestUniformLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 0.5
	loop, n, epA, _, _, gotB := twoNodeNet(t, cfg)
	for i := 0; i < 1000; i++ {
		epA.Send("b", []byte("x"))
	}
	loop.Run(60)
	delivered := len(*gotB)
	if delivered < 350 || delivered > 650 {
		t.Fatalf("delivered %d of 1000 at 50%% loss", delivered)
	}
	if n.Stats("a").PacketsLost != int64(1000-delivered) {
		t.Fatal("loss accounting mismatch")
	}
}

func TestSerializationDelayQueues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Domains = 1
	cfg.StubBps = 1000 // 1 kB/s: a 100-byte packet takes 0.1 s to serialize
	loop := eventloop.NewSim()
	n := New(loop, cfg)
	n.Attach("a", func(string, []byte) {})
	var times []float64
	n.Attach("b", func(string, []byte) { times = append(times, loop.Now()) })
	epA := &endpoint{net: n, node: n.lookup("a")}
	payload := make([]byte, 100-cfg.HeaderBytes)
	epA.Send("b", payload)
	epA.Send("b", payload)
	loop.Run(10)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	if gap < 0.09 || gap > 0.11 {
		t.Fatalf("second packet should queue behind first: gap %v", gap)
	}
}

func TestByteAccounting(t *testing.T) {
	loop, n, epA, _, _, _ := twoNodeNet(t, DefaultConfig())
	epA.Send("b", make([]byte, 72))
	loop.Run(1)
	wantSize := int64(72 + DefaultConfig().HeaderBytes)
	if s := n.Stats("a"); s.BytesSent != wantSize || s.PacketsSent != 1 {
		t.Fatalf("a stats = %+v", s)
	}
	if s := n.Stats("b"); s.BytesReceived != wantSize || s.PacketsRecv != 1 {
		t.Fatalf("b stats = %+v", s)
	}
	tot := n.TotalStats()
	if tot.BytesSent != wantSize || tot.BytesReceived != wantSize {
		t.Fatalf("total = %+v", tot)
	}
	n.ResetStats()
	if n.TotalStats().BytesSent != 0 {
		t.Fatal("reset failed")
	}
	if (n.Stats("missing") != Stats{}) {
		t.Fatal("missing node stats should be zero")
	}
}

func TestPayloadCopied(t *testing.T) {
	loop, _, epA, _, _, gotB := twoNodeNet(t, DefaultConfig())
	buf := []byte("abc")
	epA.Send("b", buf)
	buf[0] = 'X' // sender reuses the buffer
	loop.Run(1)
	if (*gotB)[0] != "a:abc" {
		t.Fatalf("payload aliased: %v", *gotB)
	}
}

func TestEndpointClose(t *testing.T) {
	loop, n, epA, _, _, gotB := twoNodeNet(t, DefaultConfig())
	epA.Close()
	epA.Send("b", []byte("x"))
	loop.Run(1)
	if len(*gotB) != 0 {
		t.Fatal("closed endpoint sent")
	}
	if n.Alive("a") {
		t.Fatal("closed endpoint should be dead")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		cfg := DefaultConfig()
		cfg.LossRate = 0.3
		loop := eventloop.NewSim()
		n := New(loop, cfg)
		var got []string
		n.Attach("a", func(string, []byte) {})
		n.Attach("b", func(from string, p []byte) { got = append(got, string(p)) })
		ep := &endpoint{net: n, node: n.lookup("a")}
		for i := 0; i < 50; i++ {
			ep.Send("b", []byte{byte(i)})
		}
		loop.Run(10)
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery order")
		}
	}
}
