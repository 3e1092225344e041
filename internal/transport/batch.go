package transport

// Batch is the packet-scheduling element: it coalesces records bound
// for one destination into batches that fit the endpoint's MTU budget,
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

// maxBatchRecords caps records per datagram; Deframe drops a frame whose
// count field claims more.
const maxBatchRecords = 65535

// sendQueue is one destination's backlog.
type sendQueue struct {
	recs  []record
	armed bool // a deferred flush is scheduled
}

// Batch coalesces per-destination records into MTU-budget batches.
type Batch struct {
	tr       *Transport
	next     batchSink
	maxBytes int // record bytes per datagram (MTU minus maxDataHeaderLen)
	maxRecs  int // records per datagram; 1 disables coalescing
	capacity int // backlog bound per destination; 0 = unbounded
}

func newBatch(tr *Transport, next batchSink, maxBytes, maxRecs, capacity int) *Batch {
	if maxBytes < 1 {
		maxBytes = 1 // degenerate MTU: every record ships alone
	}
	return &Batch{
		tr:       tr,
		next:     next,
		maxBytes: maxBytes,
		maxRecs:  maxRecs,
		capacity: capacity,
	}
}

// push queues one record and arms the end-of-handler flush. A full
// backlog refuses the record and reports it dropped with cause
// BacklogOverflow — admission failure, classified like any other drop.
func (b *Batch) push(p *peer, rec record) {
	q := &p.q
	if b.capacity > 0 && len(q.recs) >= b.capacity {
		b.tr.stats.QueueDrops++
		b.tr.dropUp(p, rec.t, BacklogOverflow)
		return
	}
	q.recs = append(q.recs, rec)
	if !q.armed {
		q.armed = true
		b.tr.loop.Defer(func() {
			q.armed = false
			b.flush(p)
		})
	}
}

// flush packs the queue into batches and pushes them downstream until
// the queue drains or the stage below stalls.
func (b *Batch) flush(p *peer) {
	if b.tr.closed {
		return
	}
	q := &p.q
	for len(q.recs) > 0 {
		// Pack from the front without consuming: a refused batch's
		// records must stay queued. A single over-budget record still
		// ships alone — the endpoint decides its fate, as UDP would.
		n, bytes := 1, len(q.recs[0].wire)
		for n < len(q.recs) && n < b.maxRecs && bytes+len(q.recs[n].wire) <= b.maxBytes {
			bytes += len(q.recs[n].wire)
			n++
		}
		wb := &wireBatch{dst: p, recs: append([]record(nil), q.recs[:n]...), bytes: bytes}
		if !b.next.pushBatch(wb, func() { b.flush(p) }) {
			return // window full; the poke re-enters flush
		}
		q.recs = q.recs[n:]
	}
	q.recs = nil // release the drained backing array
}

// close drops every record queued toward p, reporting each through
// OnDrop with cause SessionClosed.
func (b *Batch) close(p *peer) {
	for _, rec := range p.q.recs {
		b.tr.dropUp(p, rec.t, SessionClosed)
	}
}
