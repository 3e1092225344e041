package transport

import (
	"encoding/binary"

	"p2/internal/tuple"
	"p2/internal/val"
)

// Wire format; every field is a canonical uvarint (val.Uvarint), so it
// costs what its value needs and not what its type could hold:
//
//	data frame: | 0x00 | epoch | ackEpoch | cumAck | firstSeq | gap | count | records... |
//	ack frame:  | 0x01 | ackEpoch | cumAck |
//
// An epoch is two uvarints, its high then its low 16-bit half; gap is
// firstSeq-1-skip. With incarnations and flow restarts below 128 and
// sequence numbers below 2^14 a data header is 9-11 bytes and a bare ack
// 4-5. TestGoldenFrames spells a frame of each type out byte by byte.
//
// epoch identifies the sender's flow session: the node's incarnation
// (Config.Epoch) in the high 16 bits and the flow's restart count in
// the low 16 (see Config.FlowIdleTTL) — two small numbers, hence two
// one-byte varints. A node restarted at the same address — or a flow
// resumed after idle eviction — begins a fresh sequence space, so the
// receiver keys its Dedup/Ack state to the epoch: a frame carrying a
// *newer* epoch resets that peer's receive state, and a frame from a
// *stale* epoch (a datagram of the previous incarnation still in
// flight) is discarded. Without this, a replaced
// node's restarted sequence numbers fall below the peer's cumulative
// counter: every frame is suppressed as a duplicate while the
// cumulative ack keeps (falsely) confirming delivery — a silent
// blackhole.
//
// ackEpoch names the incarnation whose sequence space the acknowledgment
// (cumAck) counts. The sender ignores acknowledgments stamped with an
// epoch other than its own: they describe a dead incarnation's stream
// and must not clear the new one's flight state.
//
// Every data frame toward a peer carries cumAck — the highest contiguous
// sequence number this node has delivered *from* that peer — so steady
// bidirectional traffic acknowledges itself and needs no ack datagrams.
//
// skip keeps cumulative acknowledgment sound when the sender abandons a
// frame after the retry budget: it is the sequence number below which
// nothing remains in flight, so every hole at or below it will never be
// filled and the receiver may advance its cumulative counter across it.
// Without this, one abandoned frame would pin the receiver's cum
// forever and deadlock the session after, e.g., a healed partition.
// It travels as its gap below firstSeq, which it trails only by the
// records in flight: zero whenever this frame is the oldest unacked
// one. A gap of firstSeq or more names no sequence number; decoding
// wraps it to a skip at or above firstSeq, which Ack.push rejects.
//
// firstSeq numbers the first record; the count records that follow are
// consecutively numbered and each is a self-delimiting tuple.Marshal
// encoding, which Frame writes in place with tuple.AppendMarshal.
// Unreliable chains send zeros for the sequence fields and the receiver
// ignores them.
const (
	frameData = 0x00
	frameAck  = 0x01

	// maxDataHeaderLen is the widest header the encoder can write: type,
	// four epoch halves, cumAck, firstSeq and gap at their types' limits,
	// count at maxBatchRecords. It is what the MTU budget reserves.
	maxDataHeaderLen = 1 + 4*binary.MaxVarintLen16 + 3*binary.MaxVarintLen64 + binary.MaxVarintLen16
)

// dataHeader is a data frame's header, decoded.
type dataHeader struct {
	epoch, ackEpoch     uint32
	cumAck, first, skip uint64
	count               int
}

func appendEpoch(b []byte, e uint32) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(e>>16)), uint64(e&0xffff))
}

// appendDataHeader is the one header encoder: Frame's, and the tests'.
func appendDataHeader(b []byte, h dataHeader) []byte {
	b = appendEpoch(append(b, frameData), h.epoch)
	b = appendEpoch(b, h.ackEpoch)
	b = binary.AppendUvarint(b, h.cumAck)
	b = binary.AppendUvarint(b, h.first)
	b = binary.AppendUvarint(b, h.first-1-h.skip)
	return binary.AppendUvarint(b, uint64(h.count))
}

func appendAck(b []byte, ackEpoch uint32, cumAck uint64) []byte {
	return binary.AppendUvarint(appendEpoch(append(b, frameAck), ackEpoch), cumAck)
}

// headerReader decodes consecutive fields of an untrusted datagram; a
// malformed one latches bad, so a parser checks once at the end.
type headerReader struct {
	b   []byte
	bad bool
}

func (r *headerReader) uvarint() uint64 {
	x, n, err := val.Uvarint(r.b) // 0, 0 on error
	r.bad = r.bad || err != nil
	r.b = r.b[n:]
	return x
}

func (r *headerReader) epoch() uint32 {
	hi, lo := r.uvarint(), r.uvarint()
	r.bad = r.bad || hi > 0xffff || lo > 0xffff
	return uint32(hi)<<16 | uint32(lo)
}

// parseAck decodes an ack frame after its type byte; nothing may follow.
func parseAck(b []byte) (ackEpoch uint32, cumAck uint64, ok bool) {
	r := headerReader{b: b}
	ackEpoch, cumAck = r.epoch(), r.uvarint()
	return ackEpoch, cumAck, !r.bad && len(r.b) == 0
}

// parseDataHeader decodes a data frame's header after its type byte and
// returns the record bytes behind it. count is held to 1..the batching
// cap and to the bytes left (a record is at least two), so the caller
// may allocate by it.
func parseDataHeader(b []byte) (h dataHeader, recs []byte, ok bool) {
	r := headerReader{b: b}
	h.epoch, h.ackEpoch = r.epoch(), r.epoch()
	h.cumAck, h.first = r.uvarint(), r.uvarint()
	h.skip = h.first - 1 - r.uvarint()
	count := r.uvarint()
	if r.bad || count == 0 || count > maxBatchRecords || 2*count > uint64(len(r.b)) {
		return h, nil, false
	}
	h.count = int(count)
	return h, r.b, true
}

// Frame is the bottom send-path element — §3.4's socket handling: it
// encodes batches into datagrams (stamping the piggybacked cumulative
// ack and encoding each record's tuple straight into the datagram, one
// allocation of exactly the frame's size), hands them to the endpoint,
// and keeps the wire accounting the sysNet relation reports.
type Frame struct {
	tr *Transport
}

func (f *Frame) pushBatch(wb *wireBatch, _ poke) bool {
	tr, p := f.tr, wb.dst
	h := dataHeader{
		epoch: tr.wireEpoch(p),
		// The epoch learned for p's inbound stream, so p can tell whether
		// the ack describes its current incarnation. Zero until a data
		// frame from p arrives; a zero-epoch ack always carries cum 0,
		// which clears nothing.
		ackEpoch: p.rcv.epoch,
		first:    wb.first,
		skip:     wb.first - 1, // gap 0: all an unreliable chain, with no sequence space, sends
		count:    len(wb.recs),
	}
	if tr.ack != nil {
		h.cumAck = tr.ack.piggyback(p)
	}
	if tr.rty != nil {
		// The sequence number below which nothing toward p remains in
		// flight, so the receiver can advance its cumulative counter
		// across abandoned holes. The ledger always contains the batch
		// being framed, so skip never reaches into it.
		h.skip = p.send.rty.pend[0].first - 1
	}
	var hb [maxDataHeaderLen]byte // on the stack, so the datagram is allocated at its exact size
	hdr := len(appendDataHeader(hb[:0], h))
	buf := append(make([]byte, 0, hdr+wb.bytes), hb[:hdr]...)
	for _, rec := range wb.recs {
		buf = rec.t.AppendMarshal(buf)
	}
	wb.sentAt = tr.loop.Now()
	tr.ep.Send(p.addr, buf)

	n := int64(len(wb.recs))
	tr.stats.TuplesSent += n
	tr.stats.Frames++
	a := &p.send.acct
	a.sent += n
	a.frames++
	a.sentBytes += int64(len(buf))
	if wb.rexmit {
		tr.stats.Retransmits += n
		a.retries += n
	}
	if tr.onSent != nil {
		// hdr, the header bytes written, is charged to the first tuple.
		for _, rec := range wb.recs {
			tr.onSent(p.addr, rec.t, rec.size+hdr, wb.rexmit)
			hdr = 0
		}
	}
	return true
}

// sendAck emits a bare cumulative-ack frame — the Ack element's fallback
// when no reverse-path data frame showed up to piggyback on. epoch names
// the peer incarnation whose stream cum counts.
func (f *Frame) sendAck(p *peer, cum uint64, epoch uint32) {
	f.tr.ep.Send(p.addr, appendAck(nil, epoch, cum))
	f.tr.stats.AcksSent++
}

// Deframe is the top receive-path element — §3.4's dispatch: it parses
// inbound datagrams, resolves the sender's record, feeds piggybacked
// and bare cumulative acks to the send side's CCTx, and pushes decoded
// data frames into the receive chain (Ack → Dedup → Deliver in reliable
// chains; straight to Deliver otherwise). Only a well-formed data frame
// creates a record; an ack from an address with none acknowledges
// nothing.
type Deframe struct {
	tr     *Transport
	tuples []*tuple.Tuple // decode buffer, reused across datagrams
}

func (d *Deframe) deliver(from string, frame []byte) {
	tr := d.tr
	if tr.closed || len(frame) < 1 {
		return
	}
	switch frame[0] {
	case frameAck:
		epoch, cum, ok := parseAck(frame[1:])
		if !ok || tr.cc == nil {
			return
		}
		p := tr.peers[from]
		if p == nil || epoch != tr.wireEpoch(p) {
			return // a dead incarnation's (or evicted flow's) stream; must not clear ours
		}
		tr.cc.onAck(p, cum)
	case frameData:
		h, rest, ok := parseDataHeader(frame[1:])
		if !ok {
			return
		}
		// Decode into the reused buffer, taken out of d while in use so
		// a delivery that re-enters Deframe decodes into its own.
		tuples := d.tuples[:0]
		d.tuples = nil
		tuples, ok = decodeRecords(tuples, rest, h.count)
		if ok {
			d.data(from, h, tuples)
		}
		clear(tuples)
		d.tuples = tuples[:0]
	}
}

// decodeRecords appends count records decoded from b to out; it fails
// on a corrupt record (a real network could produce these) and on bytes
// after the last one (not a frame this encoder wrote).
func decodeRecords(out []*tuple.Tuple, b []byte, count int) ([]*tuple.Tuple, bool) {
	for range count {
		t, n, err := tuple.Unmarshal(b)
		if err != nil {
			return out, false
		}
		out = append(out, t)
		b = b[n:]
	}
	return out, len(b) == 0
}

// data pushes one decoded data frame from from into the receive chain.
func (d *Deframe) data(from string, h dataHeader, tuples []*tuple.Tuple) {
	tr := d.tr
	p := tr.receiver(from)
	if tr.ack == nil {
		tr.deliverUp(p, tuples) // unreliable chain: no ack, no dedup
		return
	}
	rs := &p.rcv
	if rs.epochSet && h.epoch < rs.epoch {
		return // datagram of a previous incarnation, still in flight
	}
	if !rs.epochSet || h.epoch > rs.epoch {
		rs.rebind(h.epoch) // new incarnation: fresh sequence space
	}
	if h.ackEpoch == tr.wireEpoch(p) {
		tr.cc.onAck(p, h.cumAck) // the piggybacked ack
	}
	tr.ack.push(p, h.skip, h.first, tuples)
}
