package transport

import "p2/internal/netif"

// Batch is the packet-scheduling element: it coalesces records bound
// for one destination into batches that fit the MTU budget (netif.MTU),
// so a burst of tuples toward one peer costs one datagram instead of
// one each.
//
// Records accumulate in a per-destination queue — the transport's
// backlog — and a flush is deferred to the end of the current event-loop
// handler. Run-to-completion execution (§3.1) makes this the natural
// batching boundary: every tuple a rule strand derives toward one peer
// lands in the same flush, with zero added latency. The flush packs
// batches front-to-back and pushes them downstream until the stage below
// refuses one (congestion window full); the refused batch's records stay
// queued and the poke re-enters the flush when the window opens, which
// means backpressure automatically produces fuller datagrams.
//
// Nothing on this path builds a closure per flush: armed peers wait in
// a per-transport FIFO with one Defer of the bound runner each (the
// engine's strand trigger pattern, so flushes run in arming order),
// and the poke a refused batch leaves is the bound flush itself.

// maxBatchRecords caps records per datagram; Deframe drops a frame whose
// count field claims more.
const maxBatchRecords = 65535

// sendQueue is one destination's backlog.
type sendQueue struct {
	recs  []record
	armed bool // a deferred flush is scheduled
}

// maxBatchBytes is the record bytes one datagram carries: the MTU less
// the widest header.
const maxBatchBytes = netif.MTU - maxDataHeaderLen

// Batch coalesces per-destination records into MTU-budget batches.
type Batch struct {
	tr       *Transport
	next     batchSink
	maxRecs  int // records per datagram; 1 disables coalescing
	capacity int // backlog bound per destination; 0 = unbounded

	armed []*peer // peers with a deferred flush, in arming order; one Defer per entry
	head  int     // index of the oldest armed peer
	runFn func()  // b.runNext, bound once
	poke  poke    // b.flush, bound once
}

func newBatch(tr *Transport, next batchSink, maxRecs, capacity int) *Batch {
	b := &Batch{
		tr:       tr,
		next:     next,
		maxRecs:  maxRecs,
		capacity: capacity,
	}
	b.runFn, b.poke = b.runNext, b.flush
	return b
}

// push queues one record and arms the end-of-handler flush. A full
// backlog refuses the record and reports it dropped with cause
// BacklogOverflow — admission failure, classified like any other drop.
func (b *Batch) push(p *peer, rec record) {
	q := &p.send.q
	if b.capacity > 0 && len(q.recs) >= b.capacity {
		b.tr.stats.QueueDrops++
		b.tr.dropUp(p, rec.t, BacklogOverflow)
		return
	}
	q.recs = append(q.recs, rec)
	if !q.armed {
		q.armed = true
		b.armed = append(b.armed, p)
		b.tr.loop.Defer(b.runFn)
	}
}

// runNext is the deferred flush: it pops the oldest armed peer and
// flushes it.
func (b *Batch) runNext() {
	p := b.armed[b.head]
	b.armed[b.head] = nil
	b.head++
	if b.head == len(b.armed) {
		b.armed, b.head = b.armed[:0], 0
	} else if b.head > 32 && b.head*2 >= len(b.armed) {
		// Slide a never-empty FIFO down so its backing array stays
		// bounded by the armed high-water mark.
		kept := copy(b.armed, b.armed[b.head:])
		clear(b.armed[kept:])
		b.armed, b.head = b.armed[:kept], 0
	}
	p.send.q.armed = false
	b.flush(p)
}

// flush packs the queue into batches and pushes them downstream until
// the queue drains or the stage below stalls.
func (b *Batch) flush(p *peer) {
	if b.tr.closed {
		return
	}
	q := &p.send.q
	for len(q.recs) > 0 {
		// Pack from the front without consuming: a refused batch's
		// records must stay queued. A single over-budget record still
		// ships alone — the endpoint decides its fate, as UDP would.
		n, bytes := 1, q.recs[0].size
		for n < len(q.recs) && n < b.maxRecs && bytes+q.recs[n].size <= maxBatchBytes {
			bytes += q.recs[n].size
			n++
		}
		// The batch takes the queue's prefix itself, capped so appends
		// to the queue can never write into it.
		wb := &wireBatch{dst: p, recs: q.recs[:n:n], bytes: bytes}
		if !b.next.pushBatch(wb, b.poke) {
			return // window full; the poke re-enters flush
		}
		q.recs = q.recs[n:]
	}
	q.recs = nil // release the drained backing array
}

// close drops every record queued toward p, reporting each through
// OnDrop with cause SessionClosed.
func (b *Batch) close(p *peer) {
	for _, rec := range p.send.q.recs {
		b.tr.dropUp(p, rec.t, SessionClosed)
	}
}
