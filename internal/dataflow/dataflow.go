// Package dataflow implements the elements a rule strand is built from
// (§3.3–3.4): equijoins of a stream against a table, PEL-driven
// selections, assignments and projections, aggregates, and the periodic
// source.
//
// A strand is a linear push chain run to completion: the engine pushes
// one event into the first element, each element pushes zero or more
// tuples into the one element downstream of it, and the chain ends in a
// Sink. Nothing in a strand queues or stalls, so there is no pull side
// and no flow-control signal here. The one place in P2 that does stall —
// a closed congestion window holding back the batching queue — is the
// network stack, and internal/transport defines its own push/poke
// contract over wire batches for it.
//
// Tuples are passed by reference. The event a strand starts from and the
// head it ends in are immutable; everything between is a working tuple
// an element builds in the node's Scratch, valid only until the Push it
// was handed to returns (see package tuple). Only Project allocates.
package dataflow

import "p2/internal/tuple"

// Pusher is an element's input: it accepts one tuple and has finished
// with it, including everything it pushed downstream as a result, when
// Push returns.
type Pusher interface {
	Push(t *tuple.Tuple)
}

// Base is the one binding every non-terminal element carries: the
// element downstream of it. Embed it, Connect it once while wiring, and
// emit through PushOut. Pushing through an unconnected Base panics.
type Base struct {
	next Pusher
}

// Connect binds the element's output to next.
func (b *Base) Connect(next Pusher) { b.next = next }

// PushOut pushes t into the downstream element.
func (b *Base) PushOut(t *tuple.Tuple) { b.next.Push(t) }
