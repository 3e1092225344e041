// Package udpnet implements netif.Network over real UDP sockets,
// turning the simulated-network P2 node into an actually deployable
// one (the paper's P2 ran over UDP on Emulab).
//
// Each attached endpoint owns one UDP socket. A reader goroutine posts
// inbound datagrams onto the node's wall-clock event loop, preserving
// the single-threaded run-to-completion execution model; everything
// above this package is identical between simulation and deployment.
//
// The reader owns no receive buffer. On unix it waits for the socket
// to become readable without one, borrows a maxDatagram buffer from
// one process-wide pool for the single non-blocking receive, copies
// the datagram out at its exact length and returns the buffer before
// the datagram is posted (recv_unix.go). An idle endpoint therefore
// holds no buffer, and the process keeps about one per P in the pool,
// however many endpoints it runs. Other platforms keep a buffer per
// reader (recv_other.go).
package udpnet

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"

	"p2/internal/eventloop"
	"p2/internal/netif"
)

// maxDatagram bounds inbound datagram size: 64 KiB covers the largest
// UDP payload. The buffer cannot be smaller than that, because the
// transport ships a record that does not fit its MTU budget alone in a
// datagram of its own (transport's Batch), which may be up to this
// size. So on unix the buffer is pooled instead (bufPool): it belongs
// to a reader only while one datagram is received and copied out.
const maxDatagram = 64 * 1024

// maxCachedAddrs bounds each of an endpoint's two address caches: the
// send side's resolved destinations (endpoint.peers) and the receive
// side's rendered sender names (endpoint.senders). A cache that reaches
// the bound is emptied and refills from the addresses in use, so a node
// that talks to many peers over its life keeps at most this many
// entries in each.
const maxCachedAddrs = 1024

// Net attaches UDP endpoints that deliver onto a wall-clock loop.
type Net struct {
	loop *eventloop.Real
}

// New creates a UDP network bound to the given loop.
func New(loop *eventloop.Real) *Net {
	return &Net{loop: loop}
}

// Attach binds a UDP socket on addr ("host:port") and starts its
// reader. The delivery callback runs on the loop goroutine. Binding an
// address already bound fails in the kernel; any number of ephemeral
// (":0") endpoints may be attached.
func (n *Net) Attach(addr string, deliver netif.DeliverFunc) (netif.Endpoint, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %s: %w", addr, err)
	}
	ep := &endpoint{
		net:     n,
		conn:    conn,
		peers:   make(map[string]net.Addr),
		senders: make(map[sender]string),
	}
	go ep.readLoop(deliver)
	return ep, nil
}

type endpoint struct {
	net  *Net
	conn net.PacketConn

	// senders maps a datagram's source to the string delivered as
	// "from", so a datagram from a known sender formats nothing. Only
	// the reader goroutine touches it; at most maxCachedAddrs entries.
	senders map[sender]string

	mu     sync.Mutex
	peers  map[string]net.Addr // resolved destinations; at most maxCachedAddrs
	closed bool
}

// sender is a datagram's source as the kernel reports it: address and
// port, plus the interface index that scopes a link-local IPv6 one.
type sender struct {
	ap   netip.AddrPort
	zone uint32
}

// String renders s byte for byte as the *net.UDPAddr that
// net.UDPConn.ReadFrom reports would print: a v4 sender into a
// dual-stack socket as "127.0.0.1:p", a scoped IPv6 one as
// "[fe80::1%eth0]:p".
func (s sender) String() string {
	ap := s.ap
	if s.zone != 0 {
		zone := strconv.FormatUint(uint64(s.zone), 10)
		if ifi, err := net.InterfaceByIndex(int(s.zone)); err == nil {
			zone = ifi.Name
		}
		ap = netip.AddrPortFrom(ap.Addr().WithZone(zone), ap.Port())
	}
	return net.UDPAddrFromAddrPort(ap).String()
}

// Send transmits payload to the named UDP address. Resolution results
// are cached; failures drop the datagram, as UDP would.
func (e *endpoint) Send(to string, payload []byte) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	dst, ok := e.peers[to]
	e.mu.Unlock()
	if !ok {
		udpAddr, err := net.ResolveUDPAddr("udp", to)
		if err != nil {
			return
		}
		dst = udpAddr
		e.mu.Lock()
		if len(e.peers) >= maxCachedAddrs {
			clear(e.peers)
		}
		e.peers[to] = dst
		e.mu.Unlock()
	}
	_, _ = e.conn.WriteTo(payload, dst)
}

// LocalAddr returns the actual bound address (resolving a ":0" bind).
func (e *endpoint) LocalAddr() string { return e.conn.LocalAddr().String() }

// Close shuts the socket down and stops the reader.
func (e *endpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	e.conn.Close()
}

// ReserveAddr binds an ephemeral loopback UDP port, records its
// address, and releases it — a helper for tests and examples that need
// concrete node identities before attaching. (A small bind race is
// possible; production deployments configure explicit ports.)
func ReserveAddr() (string, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	return addr, nil
}
