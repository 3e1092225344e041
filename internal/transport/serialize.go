package transport

import "p2/internal/tuple"

// record is one serialized tuple — the Serialize element's output and
// the unit the Batch element queues and packs.
type record struct {
	t    *tuple.Tuple
	wire []byte
}

// Serialize is the top send-path element (§3.4 "data serialization"):
// it marshals each submitted tuple into its wire record once, so
// retransmissions and batch packing reuse the bytes, and pushes the
// record into the Batch element.
type Serialize struct {
	tr   *Transport
	next *Batch
}

func (s *Serialize) push(p *peer, t *tuple.Tuple) {
	s.next.push(p, record{t: t, wire: t.Marshal()})
}
