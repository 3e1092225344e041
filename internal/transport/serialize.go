package transport

import "p2/internal/tuple"

// record is one submitted tuple and the size of its wire encoding —
// the Serialize element's output and the unit the Batch element queues
// and packs. It holds no bytes: Frame encodes the tuple straight into
// the datagram, and a retransmission encodes it again. Tuples are
// immutable, so every encoding of a record is byte-identical.
type record struct {
	t    *tuple.Tuple
	size int
}

// Serialize is the top send-path element (§3.4 "data serialization"):
// it sizes each submitted tuple's encoding once, the figure Batch packs
// against the MTU budget and OnSent charges, and pushes the record into
// the Batch element.
type Serialize struct {
	next *Batch
}

func (s *Serialize) push(p *peer, t *tuple.Tuple) {
	s.next.push(p, record{t: t, size: t.EncodedSize()})
}
