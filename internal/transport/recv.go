package transport

import (
	"p2/internal/eventloop"
	"p2/internal/tuple"
)

// The reliable receive chain: the Ack element schedules cumulative
// acknowledgments (piggybacked on reverse-path data frames when
// possible), the Dedup stage discards retransmitted frames already
// delivered, and the Deliver stage (Transport.deliverUp) hands fresh
// tuples to the application. Ack and Dedup share recvState: the
// cumulative ack *is* the dedup memory — two views of one relation,
// which is why the paper lists them as adjacent elements.

// seqSanityWindow bounds how far above the cumulative counter a data
// frame's firstSeq may claim to sit. Sequence numbers count records and
// advance consecutively, so a legitimate frame can never outrun the
// in-flight window by orders of magnitude — a firstSeq beyond this
// bound is corruption, and accepting it would poison the out-of-order
// set (unreclaimable memory) and suppress legitimate traffic.
const seqSanityWindow = 1 << 22

// recvState tracks one peer's inbound sequence space, keyed to that
// peer's session epoch: a restarted peer announces a new epoch and the
// sequence space rebinds from zero.
type recvState struct {
	cum      uint64          // all seqs <= cum delivered
	high     map[uint64]bool // out-of-order seqs above cum; nil until the first arrives
	recvd    int64           // tuples delivered upward (post-dedup)
	epoch    uint32          // incarnation whose stream cum/high count
	epochSet bool            // epoch learned from a data frame
	lastAt   float64         // loop time of the last data frame (flow janitor)

	ackPending bool // cum must reach the peer (piggyback or bare ack)
	ackArmed   bool // a delayed-ack callback is scheduled
	ackTimer   *eventloop.Timer
	ackFn      func() // Ack.fire for this peer, built on the first arm
}

// rebind resets the sequence space for a new peer incarnation. The
// delivery counter survives — it counts the peer address, not the
// session — and any armed ack timer stays armed: when it fires it reads
// the rebound cum and epoch, acknowledging the new stream.
func (r *recvState) rebind(epoch uint32) {
	r.epoch, r.epochSet = epoch, true
	r.cum = 0
	clear(r.high)
	r.ackPending = false
}

// seen reports whether seq was already delivered.
func (r *recvState) seen(seq uint64) bool {
	return seq <= r.cum || r.high[seq]
}

// mark records n consecutive seqs starting at first as delivered and
// compacts the out-of-order set into the cumulative counter. A frame
// that continues cum while nothing waits above it — the in-order
// stream, almost every frame — moves cum alone: the set would take the
// seqs and give them straight back.
func (r *recvState) mark(first uint64, n int) {
	if first == r.cum+1 && len(r.high) == 0 {
		r.cum += uint64(n)
		return
	}
	if r.high == nil {
		r.high = make(map[uint64]bool)
	}
	for s := first; s < first+uint64(n); s++ {
		if s > r.cum {
			r.high[s] = true
		}
	}
	r.compact()
}

// advance moves the cumulative counter across holes the sender declared
// abandoned (the data-frame skip field): every seq <= skip is either
// already delivered here or will never arrive. The sweep iterates the
// out-of-order set, not the (untrusted, possibly huge) seq range.
func (r *recvState) advance(skip uint64) {
	if skip <= r.cum {
		return
	}
	for s := range r.high {
		if s <= skip {
			delete(r.high, s)
		}
	}
	r.cum = skip
	r.compact()
}

func (r *recvState) compact() {
	for r.high[r.cum+1] {
		delete(r.high, r.cum+1)
		r.cum++
	}
}

// Ack is the acknowledgment element of the receive chain.
type Ack struct {
	tr *Transport
}

// push accepts one decoded data frame from Deframe: it schedules the
// cumulative acknowledgment, runs the Dedup check (frames retransmit
// whole, so the first sequence number decides), and forwards fresh
// frames to Deliver.
func (a *Ack) push(p *peer, skip, first uint64, tuples []*tuple.Tuple) {
	rs := &p.rcv
	if first > rs.cum+seqSanityWindow {
		return // corrupt firstSeq: would poison the out-of-order set
	}
	// A well-formed skip is always below the frame's own first sequence
	// number (that frame is still in flight at the sender); anything
	// else is corruption and must not drag cum forward.
	if skip < first {
		rs.advance(skip)
	}
	// Acknowledge even duplicates: the frame that carried the previous
	// ack may have been lost.
	a.schedule(p)
	if rs.seen(first) {
		a.tr.stats.DupsSuppressed += int64(len(tuples))
		return
	}
	rs.mark(first, len(tuples))
	a.tr.deliverUp(p, tuples)
}

// schedule marks the peer's cum as owed and arms the delayed-ack
// callback. If a data frame toward the peer goes out first, piggyback
// claims the ack and the callback becomes a no-op.
func (a *Ack) schedule(p *peer) {
	rs := &p.rcv
	rs.ackPending = true
	if rs.ackArmed {
		return
	}
	rs.ackArmed = true
	if rs.ackFn == nil {
		rs.ackFn = func() { a.fire(p) }
	}
	rs.ackTimer = a.tr.loop.After(ackDelay, rs.ackFn)
}

// fire is the delayed-ack callback: it sends the bare ack unless a data
// frame toward p has claimed it since the arm.
func (a *Ack) fire(p *peer) {
	rs := &p.rcv
	rs.ackArmed = false
	rs.ackTimer = nil
	if rs.ackPending && !a.tr.closed {
		rs.ackPending = false
		a.tr.frm.sendAck(p, rs.cum, rs.epoch)
	}
}

// piggyback returns the cumulative ack to stamp into a data frame
// toward p and cancels any pending bare ack — the data frame carries
// it instead. With no receive half there is nothing owed and cum is 0.
func (a *Ack) piggyback(p *peer) uint64 {
	rs := &p.rcv
	if rs.ackPending {
		a.tr.stats.AcksPiggybacked++
	}
	rs.ackPending = false
	if rs.ackTimer != nil {
		rs.ackTimer.CancelFree()
		rs.ackTimer = nil
		rs.ackArmed = false
	}
	return rs.cum
}
