//go:build unix

package udpnet

import (
	"net/netip"
	"sync"
	"syscall"

	"p2/internal/netif"
)

// bufPool holds the *[maxDatagram]byte receive buffers that every
// endpoint's reader in the process borrows, one receive at a time.
var bufPool = sync.Pool{New: func() any { return new([maxDatagram]byte) }}

// readLoop receives datagrams until the socket is closed. It waits in
// the runtime's netpoller holding no buffer; once the socket is
// readable, the Read callback borrows a pooled buffer, receives one
// datagram without blocking, copies it out at its exact length and
// returns the buffer. The sender's name comes from e.senders, so a
// datagram costs three allocations here: the kernel's sockaddr, the
// payload and the closure posted to the loop.
func (e *endpoint) readLoop(deliver netif.DeliverFunc) {
	rc, err := e.conn.(syscall.Conn).SyscallConn()
	if err != nil {
		return // only a nil *net.UDPConn has no raw conn
	}
	var (
		payload []byte
		from    syscall.Sockaddr
		rerr    error
	)
	recv := func(fd uintptr) bool {
		buf := bufPool.Get().(*[maxDatagram]byte)
		n, sa, err := syscall.Recvfrom(int(fd), buf[:], 0)
		for err == syscall.EINTR {
			n, sa, err = syscall.Recvfrom(int(fd), buf[:], 0)
		}
		if err == syscall.EAGAIN {
			bufPool.Put(buf)
			return false // not readable after all: wait in the poller
		}
		if err == nil {
			payload = make([]byte, n)
			copy(payload, buf[:n])
			from = sa
		}
		rerr = err
		bufPool.Put(buf)
		return true
	}
	for {
		if err := rc.Read(recv); err != nil || rerr != nil {
			return // closed, or the socket failed
		}
		s, ok := senderOf(from)
		if !ok {
			continue // not an IP source: no name to deliver it under
		}
		name, ok := e.senders[s]
		if !ok {
			if len(e.senders) >= maxCachedAddrs {
				clear(e.senders)
			}
			name = s.String()
			e.senders[s] = name
		}
		p := payload
		e.net.loop.Post(func() { deliver(name, p) })
	}
}

// senderOf keys a received sockaddr.
func senderOf(sa syscall.Sockaddr) (sender, bool) {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return sender{ap: netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))}, true
	case *syscall.SockaddrInet6:
		return sender{ap: netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(sa.Port)), zone: sa.ZoneId}, true
	}
	return sender{}, false
}
