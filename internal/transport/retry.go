package transport

import (
	"math"
	"slices"

	"p2/internal/eventloop"
)

// wireBatch is one datagram's worth of records toward one destination —
// the unit the lower send-path elements (CCTx, Retry, Frame) pass along
// and the unit of retransmission. Its records carry the consecutive
// sequence numbers first..first+len(recs)-1.
type wireBatch struct {
	dst   *peer
	recs  []record
	bytes int // sum of record bytes (frame payload minus header)

	first   uint64 // sequence number of recs[0]; 0 in unreliable chains
	sentAt  float64
	retries int
	rexmit  bool // ever retransmitted (Karn: contributes no RTT sample)
}

// last returns the sequence number of the final record.
func (wb *wireBatch) last() uint64 { return wb.first + uint64(len(wb.recs)) - 1 }

// destRetry is one destination's retransmission state: the outstanding
// batches, oldest first, and the single timer guarding the oldest of
// them. CCTx numbers batches in order, acks are cumulative and a
// give-up abandons the oldest, so the ledger is a queue: batches join
// at the back and leave from the front. timeoutFn is built once per
// destination so re-arming allocates no closure. strikes counts
// consecutive batches abandoned after the retry budget with no
// acknowledgment between — the failure classifier's dead-peer evidence
// (see deadStrikes).
type destRetry struct {
	pend      []*wireBatch
	timer     *eventloop.Timer
	timeoutFn func()
	strikes   int
}

// Retry is the reliable-transmission element: it remembers every batch
// in flight and keeps one retransmission timer per destination, armed
// for the oldest outstanding batch at CCTx's current RTO with
// exponential backoff — the discipline cumulative acknowledgment
// demands. Acks clear nothing past a hole, so timing (and on expiry,
// resending) only the oldest batch turns one lost datagram into one
// retransmission; the cumulative ack that answers it clears everything
// the receiver buffered above the hole. A batch that exhausts the
// retry budget is dropped, each of its tuples reported through OnDrop.
type Retry struct {
	tr      *Transport
	next    *Frame
	cleared []*wireBatch // clear's result, reused across acks
}

// pushBatch records wb as in flight, transmits it, and ensures the
// destination's timer is armed.
func (r *Retry) pushBatch(wb *wireBatch, _ poke) bool {
	p := wb.dst
	d := &p.send.rty
	d.pend = append(d.pend, wb)
	r.next.pushBatch(wb, nil)
	if d.timer == nil {
		r.arm(p)
	}
	return true
}

// arm points the destination's timer at its oldest outstanding batch.
// The disarmed timer's struct is released to the loop's pool — acks
// re-arm on every cleared batch, so this path churns constantly.
func (r *Retry) arm(p *peer) {
	d := &p.send.rty
	if d.timer != nil {
		d.timer.CancelFree()
		d.timer = nil
	}
	if len(d.pend) == 0 {
		return
	}
	if d.timeoutFn == nil {
		d.timeoutFn = func() { r.onTimeout(p) }
	}
	// Exponential backoff, capped at MaxRTO like the estimate itself —
	// the cap also bounds the whole episode to MaxRTO*(MaxRetries+1)
	// seconds, which is what lets the receive side forget idle flows on
	// a schedule no late retransmission can outrun.
	delay := math.Min(p.send.cc.rto*math.Pow(2, float64(d.pend[0].retries)), r.tr.cfg.MaxRTO)
	d.timer = r.tr.loop.After(delay, d.timeoutFn)
}

// onTimeout handles the destination timer: the oldest batch is presumed
// lost — retransmit it (or give it up) and re-arm.
func (r *Retry) onTimeout(p *peer) {
	if r.tr.closed {
		return
	}
	d := &p.send.rty
	d.timer = nil
	if len(d.pend) == 0 {
		return
	}
	o := d.pend[0]
	if o.retries >= r.tr.cfg.MaxRetries {
		d.pend = slices.Delete(d.pend, 0, 1)
		r.tr.stats.Drops += int64(len(o.recs))
		// Classify the give-up: the first few exhausted batches read as
		// loss or congestion; past deadStrikes consecutive exhaustions
		// with no ack between, the peer is presumed dead.
		d.strikes++
		cause := RetryExhausted
		if d.strikes > deadStrikes {
			cause = PeerDead
		}
		for _, rec := range o.recs {
			r.tr.dropUp(p, rec.t, cause)
		}
		r.tr.cc.onGiveUp(p)
		r.arm(p)
		return
	}
	r.tr.cc.onTimeout(p)
	o.retries++
	o.rexmit = true
	r.next.pushBatch(o, nil)
	r.arm(p)
}

// clear removes every batch toward p fully covered by the cumulative
// acknowledgment — always a prefix of the ledger — returns them in
// sequence order, and re-arms the timer for whatever is left. The
// returned slice is Retry's own, valid until the next clear.
func (r *Retry) clear(p *peer, cum uint64) []*wireBatch {
	d := &p.send.rty
	n := 0
	for n < len(d.pend) && d.pend[n].last() <= cum {
		n++
	}
	if n == 0 {
		return nil
	}
	r.cleared = append(r.cleared[:0], d.pend[:n]...)
	d.pend = slices.Delete(d.pend, 0, n)
	d.strikes = 0 // the peer acknowledged — it is alive
	r.arm(p)
	return r.cleared
}

// close cancels p's timer and reports its in-flight tuples dropped with
// cause SessionClosed — teardown is not a retry failure, and must never
// masquerade as one.
func (r *Retry) close(p *peer) {
	d := &p.send.rty
	if d.timer != nil {
		d.timer.Cancel()
	}
	for _, wb := range d.pend {
		for _, rec := range wb.recs {
			r.tr.dropUp(p, rec.t, SessionClosed)
		}
	}
}
