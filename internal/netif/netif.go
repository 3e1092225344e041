// Package netif defines the datagram interface between P2's transport
// elements and an underlying network. Two implementations exist:
// internal/simnet (a discrete-event simulated network used by the
// evaluation harness) and internal/udpnet (real UDP sockets for actual
// deployment). The transport layer above provides reliability and
// congestion control; Network itself is lossy and unordered, like UDP.
package netif

// DeliverFunc receives an inbound datagram. Implementations invoke it
// on the node's event loop, never concurrently with other handlers.
type DeliverFunc func(from string, payload []byte)

// Network attaches named endpoints and moves datagrams between them.
type Network interface {
	// Attach registers addr and its delivery callback, returning the
	// endpoint used to send. Attaching an address twice is an error.
	Attach(addr string, deliver DeliverFunc) (Endpoint, error)
}

// Endpoint sends best-effort datagrams from one attached address.
type Endpoint interface {
	// Send transmits payload toward to. Delivery is not guaranteed.
	Send(to string, payload []byte)
	// LocalAddr returns the address this endpoint was attached as.
	LocalAddr() string
	// Close detaches the endpoint; subsequent sends are dropped.
	Close()
}

// MTU is the largest payload (in bytes) a single datagram should carry
// on every network: 1500-byte Ethernet minus IPv4 + UDP headers. UDP
// can carry more via IP fragmentation, but fragmented datagrams amplify
// loss, so the transport's batching element packs tuples against this
// unfragmented budget.
const MTU = 1472
