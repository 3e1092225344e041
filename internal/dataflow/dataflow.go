// Package dataflow implements the elements a rule strand is built from
// (§3.3–3.4): equijoins of a stream against a table, PEL-driven
// selections, assignments and projections, aggregates, and the periodic
// source.
//
// A strand is a linear push chain run to completion: the engine pushes
// one event into the first element, each element pushes zero or more
// tuples into the one element downstream of it, and the chain ends in a
// Project, which hands the rule's head to the node. Nothing in a strand
// queues or stalls, so there is no pull side and no flow-control signal
// here. The one place in P2 that does stall — a closed congestion
// window holding back the batching queue — is the network stack, and
// internal/transport defines its own push/poke contract over wire
// batches for it.
//
// The graph belongs to the plan, the state to the node. A plan builds
// each rule's chain once, and every node running the plan pushes its
// events through those same elements. An element holds only what the
// plan fixed — its programs, key positions, names, index ordinal and
// the element downstream — and never changes after it is wired. What a
// node owns travels with every Push in its Ctx: its indexes, the
// Scratch its working tuples live in, its PEL VM and environment, its
// probe counter, where heads go, and the per-element slots of the
// elements that remember something between pushes (a fold's row cache
// and accumulator, an aggregate's exemplar). The continuous table
// aggregate and the periodic source are the exceptions: each hooks one
// node's table or timer, so each is built per node.
//
// Tuples are passed by reference. The event a strand starts from and the
// head it ends in are immutable; everything between is a working tuple
// an element builds in the node's Scratch, valid only until the Push it
// was handed to returns (see package tuple). Only Project allocates.
package dataflow

import (
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
)

// Pusher is an element's input: it accepts one tuple on behalf of the
// node c and has finished with it, including everything it pushed
// downstream as a result, when Push returns.
type Pusher interface {
	Push(c *Ctx, t *tuple.Tuple)
}

// Flusher ends an aggregating strand: after the event's push returns,
// Flush emits the aggregate the pushes accumulated and resets. A
// strand has at most one, an AggStream or a FoldJoin.
type Flusher interface {
	Flush(c *Ctx, event *tuple.Tuple)
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
func (b *Base) PushOut(c *Ctx, t *tuple.Tuple) { b.next.Push(c, t) }

// Ctx is one node's state for the element graph it shares with every
// other node running its plan. The engine fills the exported fields;
// the rest grows on first use. A node's strands run one at a time to
// completion, so one Ctx serves them all, and it is not safe for
// concurrent use.
type Ctx struct {
	// Indexes holds the node's index for each index ordinal of its plan;
	// joins probe Indexes[ordinal].
	Indexes []*table.Index
	// Env is what PEL built-ins read: the node's clock, randomness and
	// address.
	Env *pel.Env
	// Deliver receives every head a Project derives, with the rule
	// ordinal the plan gave the Project.
	Deliver func(rule int, t *tuple.Tuple)
	// Probes counts equijoin work: one per probe, plus one per candidate
	// row visited when the probe walks the index (an antijoin's
	// existence check visits none). A probe FoldJoin answers from its
	// row cache counts its one and visits no rows: the walk it skipped
	// is the work the cache exists to avoid.
	Probes int64
	// Scratch holds the working tuples of every strand the node runs.
	Scratch Scratch

	// vm evaluates every program: an evaluation finishes before the
	// element that ran it pushes anything, so evaluations never nest.
	vm pel.VM
	// keys is a stack of rendered probe keys. A join's key must stay
	// put while it walks its bucket, and the elements downstream of it
	// probe meanwhile, so each probe renders past the ones still live
	// and pops its own when it is done. Growth replaces the array and
	// leaves the live keys in the old one, as Scratch does.
	keys    []byte
	folds   []*foldState   // by FoldJoin slot
	streams []*streamState // by AggStream slot
}

// pushKey renders t's probe key over cols on top of the key stack,
// counts the probe, and returns the key with the mark popKey releases.
func (c *Ctx) pushKey(t *tuple.Tuple, cols []int) ([]byte, int) {
	m := len(c.keys)
	c.keys = t.AppendKey(c.keys, cols)
	c.Probes++
	return c.keys[m:], m
}

// popKey releases every key rendered since m.
func (c *Ctx) popKey(m int) { c.keys = c.keys[:m] }

// fold returns the state of the FoldJoin in slot i.
func (c *Ctx) fold(i int) *foldState {
	for len(c.folds) <= i {
		c.folds = append(c.folds, nil)
	}
	if c.folds[i] == nil {
		c.folds[i] = new(foldState)
	}
	return c.folds[i]
}

// stream returns the state of the AggStream in slot i.
func (c *Ctx) stream(i int) *streamState {
	for len(c.streams) <= i {
		c.streams = append(c.streams, nil)
	}
	if c.streams[i] == nil {
		c.streams[i] = new(streamState)
	}
	return c.streams[i]
}
