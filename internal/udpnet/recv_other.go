//go:build !unix

package udpnet

import "p2/internal/netif"

// readLoop is the one platform fork in this package. Windows has no
// syscall.Recvfrom on sockets, so here each reader keeps its own
// maxDatagram buffer and reads through net.PacketConn.ReadFrom, which
// formats the sender's address on every datagram.
func (e *endpoint) readLoop(deliver netif.DeliverFunc) {
	buf := make([]byte, maxDatagram)
	for {
		nr, raddr, err := e.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		payload := make([]byte, nr)
		copy(payload, buf[:nr])
		from := raddr.String()
		e.net.loop.Post(func() { deliver(from, payload) })
	}
}
