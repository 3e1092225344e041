package transport

import "math"

// CCTx is the congestion-control element: a per-destination AIMD window
// over in-flight datagrams with TCP-style slow start, plus the
// Jacobson/Karels RTT estimator whose RTO the Retry element's timers
// consult. It admits batches from the Batch element when the window has
// room, assigns their sequence numbers, and refuses them (arming the
// poke) when it does not; acknowledgments and drops reopen the window
// and fire the poke.
type CCTx struct {
	tr   *Transport
	next *Retry
}

// ccState is one destination's sender-side control state.
type ccState struct {
	nextSeq  uint64 // last sequence number assigned
	inflight int    // datagrams in flight
	cwnd     float64
	ssthresh float64
	srtt     float64
	rttvar   float64
	rto      float64
	stalled  poke // armed by a refused push; fired with the peer when the window opens
}

// pushBatch admits wb into the window or refuses it. On admission the
// batch's records receive consecutive sequence numbers and the batch
// moves down to Retry.
func (c *CCTx) pushBatch(wb *wireBatch, pk poke) bool {
	st := &wb.dst.send.cc
	if float64(st.inflight) >= st.cwnd {
		st.stalled = pk
		return false
	}
	wb.first = st.nextSeq + 1
	st.nextSeq += uint64(len(wb.recs))
	st.inflight++
	c.next.pushBatch(wb, nil)
	return true
}

// onAck processes a cumulative acknowledgment from p — piggybacked in
// a data-frame header or carried by a bare ack frame. Every batch fully
// covered by cum leaves flight and contributes additive window growth.
// Only the most recently transmitted of them supplies an RTT sample
// (plus Karn's rule: never a retransmitted batch): a cumulative ack can
// clear batches whose acknowledgment was stalled behind a hole, and
// their inflated wait times are queueing artifacts, not path RTT.
func (c *CCTx) onAck(p *peer, cum uint64) {
	if p.send == nil {
		return // nothing was sent under this epoch, so nothing to clear
	}
	st := &p.send.cc
	cleared := c.tr.rty.clear(p, cum)
	if len(cleared) == 0 {
		return
	}
	var freshest *wireBatch
	recovery := false
	for _, wb := range cleared {
		st.inflight--
		if wb.rexmit {
			// This ack ends a retransmission episode: everything it
			// clears sat buffered behind the hole, so no batch in it
			// times the path (Karn's rule, extended to the episode).
			recovery = true
		} else if freshest == nil || wb.sentAt > freshest.sentAt {
			freshest = wb
		}
		// Additive increase: slow start below ssthresh, then 1/cwnd.
		if st.cwnd < st.ssthresh {
			st.cwnd++
		} else {
			st.cwnd += 1 / st.cwnd
		}
	}
	if freshest != nil && !recovery {
		c.sample(st, c.tr.loop.Now()-freshest.sentAt)
	}
	if st.cwnd > windowMax {
		st.cwnd = windowMax
	}
	clear(cleared) // Retry reuses the slice; keep no acked batch alive in it
	c.open(p)
}

// sample folds one RTT measurement into the estimator.
func (c *CCTx) sample(st *ccState, rtt float64) {
	if st.srtt == 0 {
		st.srtt = rtt
		st.rttvar = rtt / 2
	} else {
		st.rttvar = 0.75*st.rttvar + 0.25*math.Abs(st.srtt-rtt)
		st.srtt = 0.875*st.srtt + 0.125*rtt
	}
	st.rto = c.tr.clampRTO(st.srtt + 4*st.rttvar)
}

// onTimeout applies multiplicative decrease and restarts slow start —
// called by Retry before each retransmission.
func (c *CCTx) onTimeout(p *peer) {
	st := &p.send.cc
	st.ssthresh = math.Max(float64(st.inflight)/2, 2)
	st.cwnd = 1
}

// onGiveUp frees the window slot of a batch dropped after the retry
// budget and pokes the backlog.
func (c *CCTx) onGiveUp(p *peer) {
	p.send.cc.inflight--
	c.open(p)
}

// open fires p's stalled poke, if any — capacity freed, try again.
func (c *CCTx) open(p *peer) {
	if pk := p.send.cc.stalled; pk != nil {
		p.send.cc.stalled = nil
		pk(p)
	}
}
