package udpnet

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/netif"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/val"
)

func TestRawDatagramExchange(t *testing.T) {
	loop := eventloop.NewReal()
	n := New(loop)

	addrA, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []string
	epA, err := n.Attach(addrA, func(from string, p []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := n.Attach(addrB, func(from string, p []byte) {
		mu.Lock()
		got = append(got, from+":"+string(p))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	go loop.Run()
	defer loop.Stop()

	epA.Send(addrB, []byte("hello"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(got) > 0
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != addrA+":hello" {
		t.Fatalf("got %v", got)
	}
}

func TestDoubleAttachFails(t *testing.T) {
	loop := eventloop.NewReal()
	n := New(loop)
	addr, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Attach(addr, func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := n.Attach(addr, func(string, []byte) {}); err == nil {
		t.Fatal("second attach must fail")
	}
}

func TestCloseThenReattach(t *testing.T) {
	loop := eventloop.NewReal()
	n := New(loop)
	addr, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Attach(addr, func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	ep.Close()                 // idempotent
	ep.Send(addr, []byte("x")) // silently dropped after close
	ep2, err := n.Attach(addr, func(string, []byte) {})
	if err != nil {
		t.Fatalf("reattach after close: %v", err)
	}
	ep2.Close()
}

func TestLocalAddrResolvesEphemeral(t *testing.T) {
	loop := eventloop.NewReal()
	n := New(loop)
	ep, err := n.Attach("127.0.0.1:0", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.LocalAddr() == "127.0.0.1:0" || ep.LocalAddr() == "" {
		t.Fatalf("LocalAddr = %q", ep.LocalAddr())
	}
}

// TestPingPongOverRealUDP deploys two full P2 engine nodes — parser,
// planner, dataflow, transport — over actual UDP sockets on loopback
// and verifies round trips complete. This is the deployment-path
// integration test.
func TestPingPongOverRealUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	plan := planner.MustCompile(overlog.MustParse(overlays.PingPongSource), nil)

	addrA, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := ReserveAddr()
	if err != nil {
		t.Fatal(err)
	}

	mkNode := func(addr string) (*engine.Node, *eventloop.Real) {
		loop := eventloop.NewReal()
		n := engine.NewNode(addr, loop, New(loop), plan, engine.Options{Seed: 1})
		return n, loop
	}
	a, loopA := mkNode(addrA)
	b, loopB := mkNode(addrB)

	var mu sync.Mutex
	rtts := 0
	errs := make(chan error, 2)
	loopA.Post(func() {
		if err := a.Start(); err != nil {
			errs <- err
			return
		}
		a.Watch("rtt", func(ev engine.WatchEvent) {
			if ev.Dir == engine.DirInserted {
				mu.Lock()
				rtts++
				mu.Unlock()
			}
		})
		a.AddFact("pingPeer", val.Str(addrA), val.Str(addrB))
	})
	loopB.Post(func() {
		if err := b.Start(); err != nil {
			errs <- err
		}
	})
	go loopA.Run()
	go loopB.Run()
	defer loopA.Stop()
	defer loopB.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		mu.Lock()
		n := rtts
		mu.Unlock()
		if n >= 2 {
			return // at least two round trips measured over real UDP
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("only %d rtt measurements over real UDP", rtts)
}

// listenUDP opens a raw UDP socket closed when the test ends.
func listenUDP(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	c, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.UDPConn)
}

type datagram struct {
	from    string
	payload []byte
}

// attachRecv attaches addr on a running loop and hands every datagram
// the endpoint delivers to the returned channel.
func attachRecv(t *testing.T, addr string) (netif.Endpoint, <-chan datagram) {
	t.Helper()
	loop := eventloop.NewReal()
	go loop.Run()
	t.Cleanup(func() { loop.Stop() })
	got := make(chan datagram, 1)
	ep, err := New(loop).Attach(addr, func(from string, p []byte) { got <- datagram{from, p} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep, got
}

func waitDatagram(t *testing.T, got <-chan datagram) datagram {
	t.Helper()
	select {
	case d := <-got:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no datagram delivered within 5 s")
		return datagram{}
	}
}

// TestTwoEphemeralAttaches attaches two ":0" endpoints on one Net: the
// kernel picks two ports, and nothing refuses the second request.
func TestTwoEphemeralAttaches(t *testing.T) {
	n := New(eventloop.NewReal())
	a, err := n.Attach("127.0.0.1:0", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Attach("127.0.0.1:0", func(string, []byte) {})
	if err != nil {
		t.Fatalf("second ephemeral attach: %v", err)
	}
	defer b.Close()
	if a.LocalAddr() == b.LocalAddr() {
		t.Fatalf("both endpoints bound %s", a.LocalAddr())
	}
}

// TestRecvMaxDatagram sends the largest IPv4 UDP payload, 65,507
// bytes, and checks it arrives whole: the pooled receive buffer keeps
// the full datagram size.
func TestRecvMaxDatagram(t *testing.T) {
	ep, got := attachRecv(t, "127.0.0.1:0")
	src := listenUDP(t, "127.0.0.1:0")
	want := make([]byte, 65507)
	for i := range want {
		want[i] = byte(i * 7)
	}
	dst, err := net.ResolveUDPAddr("udp", ep.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteTo(want, dst); err != nil {
		t.Fatal(err)
	}
	d := waitDatagram(t, got)
	if !bytes.Equal(d.payload, want) {
		t.Fatalf("got %d bytes, want the %d sent", len(d.payload), len(want))
	}
}

// TestRecvFromIsSenderAddr checks that "from" is the sender socket's
// LocalAddr, byte for byte, on an IPv4 endpoint, an IPv6 one and a
// dual-stack ":0" one that an IPv4 sender reaches.
func TestRecvFromIsSenderAddr(t *testing.T) {
	for _, tc := range []struct{ name, bind, sender string }{
		{"v4", "127.0.0.1:0", "127.0.0.1:0"},
		{"v6", "[::1]:0", "[::1]:0"},
		{"v4-into-dual-stack", ":0", "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.bind == "[::1]:0" {
				c, err := net.ListenPacket("udp", "[::1]:0")
				if err != nil {
					t.Skipf("no IPv6 loopback: %v", err)
				}
				c.Close()
			}
			ep, got := attachRecv(t, tc.bind)
			src := listenUDP(t, tc.sender)
			port := ep.(*endpoint).conn.LocalAddr().(*net.UDPAddr).Port
			dst := &net.UDPAddr{IP: src.LocalAddr().(*net.UDPAddr).IP, Port: port}
			for i := 0; i < 3; i++ { // the first names a new sender, the rest hit the cache
				if _, err := src.WriteTo([]byte("x"), dst); err != nil {
					t.Fatal(err)
				}
				if d := waitDatagram(t, got); d.from != src.LocalAddr().String() {
					t.Fatalf("from = %q, want the sender's %q", d.from, src.LocalAddr().String())
				}
			}
		})
	}
}

// TestRecvAddrCachesBounded exchanges a datagram each way with more
// distinct loopback ports than maxCachedAddrs, one fresh socket per
// port, and checks that neither the send side's destination cache nor
// the receive side's sender-name cache grows past the bound.
func TestRecvAddrCachesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("opens over a thousand sockets")
	}
	epI, got := attachRecv(t, "127.0.0.1:0")
	ep := epI.(*endpoint)
	dst, err := net.ResolveUDPAddr("udp", ep.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for len(seen) <= maxCachedAddrs {
		c := listenUDP(t, "127.0.0.1:0")
		ep.Send(c.LocalAddr().String(), []byte("x"))
		_, err := c.WriteTo([]byte("x"), dst)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		seen[waitDatagram(t, got).from] = true
	}
	ep.mu.Lock()
	peers := len(ep.peers)
	ep.mu.Unlock()
	if peers > maxCachedAddrs {
		t.Fatalf("send cache holds %d destinations after %d, want <= %d", peers, len(seen), maxCachedAddrs)
	}
	// The reader wrote senders before posting the last datagram, and
	// waits for the next one now: reading the map here does not race.
	if n := len(ep.senders); n > maxCachedAddrs {
		t.Fatalf("sender cache holds %d names after %d, want <= %d", n, len(seen), maxCachedAddrs)
	}
}
