package transport

import (
	"slices"
	"strings"
)

// peer is everything the transport holds about one remote address: the
// state each element of the chain keeps per destination, in one record
// that Send and Deliver resolve once and the elements pass along. The
// callbacks that outlive a handler are built once, never per packet:
// the deferred flush and the stalled poke are bound once per transport
// and take the record as an argument (Batch.runNext pops it from the
// armed FIFO; a poke is called with it), while the retransmission
// timeout (one per send half) and the delayed ack (one per record) are
// closures built on first use, capturing the record, never the address.
//
// Every peer pays for the record, so it holds inline only the address,
// the restart count and the 64-byte receive half, which two records in
// three carry at Chord+KV set-up. The send half (backlog, window and
// RTT estimate, retransmission ledger, wire accounting) is three times
// that size and more than a third of the records never have one: the
// peer sends this node data and gets acks, and nothing else. So it is
// a *sendHalf that Send makes on first use and reclaimSend drops; a
// record without one reports the initial window and RTO and zero
// counters, as a fresh half would.
//
// A record's lifetime is one rule, enforced by reclaimSend and sweep:
//
//   - The send half is reclaimed once Send has not touched the peer for
//     FlowIdleTTL, and only while nothing toward it is queued, armed,
//     in flight or stalled: sequence continuity must hold while frames
//     can still reach the peer. If sequence space was consumed the
//     restart count bumps, so the flow's next frame carries a higher
//     wire epoch and the peer rebinds its Dedup/Ack state — the
//     machinery that already handles node restarts handles
//     reclamation, no handshake needed.
//   - The receive half is reclaimed after max(2·TTL, MaxRTO ·
//     (MaxRetries+2)) without a data frame, and only with no ack owed.
//     The doubled lifetime is the ordering argument that makes
//     reclamation safe: by the time this node forgets a peer's inbound
//     stream, a sender resuming toward it has sat idle past its own
//     (shorter) TTL and opens a fresh epoch, which rebinds the new
//     receive state instead of resuming into it. The second term
//     outlasts the longest retransmission episode: a delivered but
//     unacknowledged batch can arrive again as late as the full backoff
//     span after its first transmission, and forgetting the dedup
//     memory before then would deliver it twice.
//   - The record leaves Transport.peers when both halves are gone. Only
//     the restart count outlives it, in Transport.retired, because it
//     must never go backwards: 16 bits per peer ever contacted.
type peer struct {
	addr string
	send *sendHalf // nil until Send, and again after reclaimSend
	bump uint16    // flow restarts; low half of the wire epoch

	// Receive half; receiving is set by the first data frame and
	// cleared by sweep.
	receiving bool
	rcv       recvState
}

// sendHalf is the sender-side state toward one peer.
type sendHalf struct {
	sentAt float64 // loop time of the most recent Send toward the peer
	q      sendQueue
	cc     ccState
	rty    destRetry
	acct   destAcct
}

// peer returns (creating if needed) the record for addr.
func (tr *Transport) peer(addr string) *peer {
	p := tr.peers[addr]
	if p == nil {
		p = &peer{addr: addr, bump: tr.retired[addr]}
		delete(tr.retired, addr)
		tr.peers[addr] = p
		i, _ := slices.BinarySearchFunc(tr.order, addr, func(o *peer, a string) int { return strings.Compare(o.addr, a) })
		tr.order = slices.Insert(tr.order, i, p)
	}
	return p
}

// reclaimSend applies the send-half rule to a peer idle past the TTL;
// it refuses (the janitor simply retries next sweep) while anything
// toward the peer is live, or when the flow-epoch space is exhausted.
func (tr *Transport) reclaimSend(p *peer) {
	s := p.send
	if len(s.q.recs) > 0 || s.q.armed || len(s.rty.pend) > 0 || s.rty.timer != nil ||
		s.cc.inflight > 0 || s.cc.stalled != nil {
		return
	}
	if s.cc.nextSeq > 0 {
		if p.bump == 0xffff {
			return // keep the state instead
		}
		p.bump++
	}
	p.send = nil
}

// armJanitor schedules the flow sweep if one is not already pending.
func (tr *Transport) armJanitor() {
	ttl := tr.cfg.flowTTL()
	if tr.janTimer != nil || tr.closed || ttl <= 0 {
		return
	}
	tr.janTimer = tr.loop.After(ttl/2, tr.sweep)
}

// sweep is the flow janitor: it applies the lifetime rule to every
// peer, and keeps sweeping while any record remains.
func (tr *Transport) sweep() {
	tr.janTimer = nil
	if tr.closed {
		return
	}
	ttl := tr.cfg.flowTTL()
	recvTTL := max(2*ttl, tr.cfg.MaxRTO*float64(tr.cfg.MaxRetries+2))
	now := tr.loop.Now()
	kept := tr.order[:0]
	for _, p := range tr.order {
		if p.send != nil && now-p.send.sentAt >= ttl {
			tr.reclaimSend(p)
		}
		if p.receiving && now-p.rcv.lastAt >= recvTTL && !p.rcv.ackPending && !p.rcv.ackArmed {
			p.receiving, p.rcv = false, recvState{}
		}
		if p.send != nil || p.receiving {
			kept = append(kept, p)
			continue
		}
		delete(tr.peers, p.addr)
		if p.bump > 0 {
			tr.retired[p.addr] = p.bump
		}
	}
	clear(tr.order[len(kept):])
	tr.order = kept
	if len(kept) > 0 {
		tr.armJanitor()
	}
}

// wireEpoch is the epoch stamped on data frames toward p: the node's
// session incarnation (Config.Epoch) in the high 16 bits, the flow's
// restart count in the low 16. Both components only grow, so peers
// need one comparison to order incarnations and flow restarts alike.
func (tr *Transport) wireEpoch(p *peer) uint32 {
	return tr.cfg.Epoch<<16 | uint32(p.bump)
}

// receiver resolves the record for the sender of an inbound data frame,
// opening its receive half if needed, and stamps the activity clock
// ("last data from this peer").
func (tr *Transport) receiver(from string) *peer {
	p := tr.peer(from)
	if !p.receiving {
		p.receiving = true
		tr.armJanitor()
	}
	p.rcv.lastAt = tr.loop.Now()
	return p
}
