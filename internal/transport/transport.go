// Package transport implements P2's networking subsystem as the element
// chain §3.4 describes: "socket handling, packet scheduling, congestion
// control, reliable transmission, data serialization, and dispatch" are
// not a black box below the dataflow — they are dataflow, small elements
// composed per node.
//
// The send path is Serialize → Batch → CCTx → Retry → Frame: tuples are
// sized, coalesced into MTU-budget datagrams per destination, admitted
// through a per-destination AIMD congestion window, remembered for
// RTO-driven retransmission, and encoded into frames on a
// netif.Endpoint (each transmission encodes its tuples afresh). The
// receive path mirrors it: Deframe → Ack → Dedup → Deliver. Elements
// hand batches to each other with the push/poke discipline of §3.3: a
// push that returns false means "no capacity — the poke fires when some
// frees", which is how a closed congestion window backpressures the
// batching queue (and how backpressure naturally produces fuller
// datagrams). This chain is the one place in P2 that stalls, so the
// contract (poke, batchSink) is defined here; rule strands in
// internal/dataflow run to completion and carry tuples, not wire
// batches, and have no flow-control signal.
//
// Acknowledgments are cumulative and ride in data-frame headers: every
// data frame toward a peer carries the highest contiguous sequence
// number received *from* that peer, so steady bidirectional traffic
// needs no ack datagrams at all; a delayed-ack timer emits a bare ack
// only when no reverse-path data shows up in time.
//
// Which elements a node composes is read off Config where New assembles
// the chain, so the Unreliable mode is merely a shorter chain (Serialize
// → Batch → Frame, Deframe → Deliver) rather than branches inside a
// monolith, and future policies (priority scheduling, per-rule QoS) are
// new elements.
//
// Elements are behaviour; a peer is their shared per-destination state.
// Send and Deliver resolve the remote address to its record once and
// the chain hands the record along, so no element keeps a map of its
// own. A record has three lifetimes (peer.go states the rule): the send
// half goes after FlowIdleTTL with nothing toward the peer outstanding,
// because a node's state should track its working set of peers and not
// its history; the receive half stays at least twice as long, and past
// the longest retransmission episode, so a resuming sender has always
// opened a fresh epoch and no late retransmission finds the dedup
// memory gone; the 16-bit restart count outlives both, because an epoch
// that went backwards would be discarded as stale.
//
// One Transport lives per P2 node. All state transitions happen on the
// node's event loop.
package transport

import (
	"fmt"
	"math"

	"p2/internal/eventloop"
	"p2/internal/netif"
	"p2/internal/tuple"
)

// Config tunes reliability, congestion control, and the stack shape.
type Config struct {
	MaxRetries int     // transmissions before giving up (total = 1 + retries)
	InitialRTO float64 // seconds, used before an RTT sample exists
	MinRTO     float64
	MaxRTO     float64
	WindowInit float64 // initial congestion window, datagrams in flight
	// QueueCap bounds each destination's backlog: the tuples queued
	// behind its congestion window. Past it Send refuses the tuple,
	// reported once through OnDrop as BacklogOverflow, so a node queues
	// at most QueueCap × (peers with a send half) tuples. 0 leaves the
	// backlog unbounded; the unreliable chain, which drains every
	// handler, has none.
	QueueCap   int
	Unreliable bool // fire-and-forget chain: no acks, no retries, no window
	NoBatch    bool // one tuple per datagram (the pre-batching framing)
	// Epoch identifies this transport's session incarnation on the
	// wire. A node restarted at the same address must carry a HIGHER
	// epoch than its predecessor: peers key their Dedup/Ack state to
	// it, resetting when a new incarnation appears and discarding
	// stale datagrams and acknowledgments from the old one. Without a
	// fresh epoch, the restarted node's sequence numbers fall below
	// the peer's cumulative counter and every frame it sends is
	// silently suppressed as a duplicate.
	//
	// On the wire the incarnation occupies the high 16 bits of the
	// epoch field; the low 16 count per-flow restarts (see
	// FlowIdleTTL). Incarnations above 65535 wrap.
	Epoch uint32
	// FlowIdleTTL bounds per-peer flow state in time. A peer the send
	// path has not touched for this many seconds has its sender-side
	// state (congestion window, RTT estimate, retransmission ledger,
	// backlog, wire accounting) reclaimed, and the flow's next frame
	// opens a fresh wire epoch so the peer rebinds its Dedup/Ack
	// state cleanly — the machinery that already handles node
	// restarts handles reclamation, no handshake needed.
	// Receiver-side state is reclaimed after twice this long, by
	// which time a resuming sender has always moved to a new epoch.
	// Without a TTL a node keeps state for every peer it ever
	// exchanged a datagram with — O(N) per node on a Chord ring,
	// where lookups touch random fingers, which is what caps
	// deployment size. 0 uses DefaultFlowIdleTTL; negative keeps flow
	// state forever.
	FlowIdleTTL float64
}

// windowMax caps the congestion window, in datagrams in flight.
const windowMax = 64

// ackDelay is how long, in seconds, the receiver waits for a
// reverse-path data frame to piggyback the cumulative ack on before it
// sends a bare ack datagram.
const ackDelay = 0.02

// DefaultFlowIdleTTL is the flow-state lifetime a zero FlowIdleTTL
// resolves to: comfortably above the Chord maintenance periods (pings
// and stabilization keep genuinely live flows warm every few seconds)
// and short enough that a node's state tracks its working set of peers
// rather than its history — at N=128 the median per-node peer count
// drops from ~58 to ~25 against the keep-forever baseline.
const DefaultFlowIdleTTL = 60.0

// flowTTL resolves the Config field's default.
func (c Config) flowTTL() float64 {
	if c.FlowIdleTTL < 0 {
		return 0
	}
	if c.FlowIdleTTL == 0 {
		return DefaultFlowIdleTTL
	}
	return c.FlowIdleTTL
}

// deadStrikes is how many consecutive batches toward one peer may
// exhaust the retry budget, with no intervening acknowledgment, before
// the peer is presumed dead: drops up to the threshold classify as
// RetryExhausted, drops past it as PeerDead.
const deadStrikes = 2

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		MaxRetries: 4,
		InitialRTO: 1.0,
		MinRTO:     0.2,
		MaxRTO:     8.0,
		WindowInit: 4,
		QueueCap:   512,
	}
}

// DropCause classifies why the transport abandoned a tuple — the
// structured failure taxonomy the OnDrop upcall and the per-cause drop
// counters carry. The constant order is the wire order of the sysNet
// drop columns and the index into DropCounts.
type DropCause uint8

// Drop causes.
const (
	// RetryExhausted: the batch spent its retry budget but the peer is
	// not (yet) presumed dead — loss or congestion, not a silent peer.
	RetryExhausted DropCause = iota
	// SessionClosed: the transport was closed with the tuple still
	// queued or in flight; it was never refused by the network.
	SessionClosed
	// PeerDead: the retry budget was exhausted deadStrikes consecutive
	// times toward the peer with no acknowledgment between — the peer
	// is presumed crashed or unreachable.
	PeerDead
	// BacklogOverflow: the per-destination backlog bound (QueueCap) was
	// full, so the tuple was refused before ever entering the window.
	BacklogOverflow

	// NumDropCauses is the size of the cause space (for DropCounts).
	NumDropCauses = 4
)

// String names the cause the way metrics labels and reasons spell it.
func (c DropCause) String() string {
	switch c {
	case RetryExhausted:
		return "RetryExhausted"
	case SessionClosed:
		return "SessionClosed"
	case PeerDead:
		return "PeerDead"
	case BacklogOverflow:
		return "BacklogOverflow"
	}
	return fmt.Sprintf("DropCause(%d)", uint8(c))
}

// DropCauses lists every cause in counter order.
func DropCauses() []DropCause {
	return []DropCause{RetryExhausted, SessionClosed, PeerDead, BacklogOverflow}
}

// DropCounts is a per-cause drop counter vector, indexed by DropCause.
type DropCounts [NumDropCauses]int64

// Stats counts transport-level activity for the bandwidth figures.
type Stats struct {
	TuplesSent      int64      // data records put on the wire (retransmissions included)
	Frames          int64      // data datagrams sent
	Retransmits     int64      // records re-sent by the Retry element
	Drops           int64      // records abandoned after MaxRetries
	QueueDrops      int64      // backlog overflow
	AcksSent        int64      // bare ack datagrams
	AcksPiggybacked int64      // acks that rode in a data-frame header instead
	DupsSuppressed  int64      // records discarded by the Dedup stage
	Dropped         DropCounts // every OnDrop upcall, classified by cause
}

// poke is the "capacity freed — try again" continuation the elements
// hand each other, called with the peer whose capacity freed. Pokes
// are idempotent retry hints: an element may receive one it no longer
// cares about, and re-examines its state. Taking the peer as an
// argument lets an element bind its poke once per transport (Batch's
// is its flush method) instead of building a closure per refusal.
type poke func(*peer)

// batchSink is the downstream port type on the send path: the Batch
// element pushes packed batches into CCTx (reliable chains) or straight
// into Frame. A false return means the batch was NOT consumed (the
// congestion window is full) and pk fires, with the batch's peer, when
// capacity frees.
type batchSink interface {
	pushBatch(wb *wireBatch, pk poke) bool
}

// destAcct is per-peer wire accounting, maintained by the Frame element
// (and, for the drop vector, by dropUp).
type destAcct struct {
	sent      int64 // records transmitted (including retransmissions)
	frames    int64 // data datagrams
	sentBytes int64 // data bytes on the wire
	retries   int64 // records retransmitted
	drops     DropCounts
}

// Transport provides tuple delivery over a netif.Endpoint through a
// composed element chain.
type Transport struct {
	loop eventloop.Loop
	ep   netif.Endpoint
	cfg  Config

	onReceive func(from string, t *tuple.Tuple)
	onSent    func(to string, t *tuple.Tuple, wireBytes int, retransmit bool)
	onDrop    func(to string, t *tuple.Tuple, cause DropCause)

	// Send chain (top to bottom). cc and rty are nil in unreliable chains.
	ser *Serialize
	bat *Batch
	cc  *CCTx
	rty *Retry
	frm *Frame

	// Receive chain. ack is nil in unreliable chains.
	dfr *Deframe
	ack *Ack

	// Every remote address the transport holds state for (see peer.go),
	// and the same records sorted by address: the order PerDest reports
	// in and Close drops in.
	peers map[string]*peer
	order []*peer
	// retired keeps the restart count of each reclaimed peer that has
	// one: the one piece of per-peer state that is O(peers ever
	// contacted) rather than O(working set).
	retired map[string]uint16

	stats    Stats
	closed   bool
	janTimer *eventloop.Timer // the pending flow sweep, if any
}

// New assembles the element chain cfg names, bound to ep. Wire ep's
// delivery callback to Deliver.
func New(loop eventloop.Loop, ep netif.Endpoint, cfg Config) *Transport {
	tr := &Transport{
		loop:    loop,
		ep:      ep,
		cfg:     cfg,
		peers:   make(map[string]*peer),
		retired: make(map[string]uint16),
	}
	tr.frm = &Frame{tr: tr}
	tr.dfr = &Deframe{tr: tr}

	maxRecs := maxBatchRecords
	if cfg.NoBatch {
		maxRecs = 1
	}
	var sink batchSink = tr.frm
	capacity := 0 // the unreliable chain drains every turn; no bound needed
	if !cfg.Unreliable {
		tr.cc = &CCTx{tr: tr}
		tr.rty = &Retry{tr: tr, next: tr.frm}
		tr.ack = &Ack{tr: tr}
		tr.cc.next = tr.rty
		sink = tr.cc
		capacity = cfg.QueueCap
	}
	tr.bat = newBatch(tr, sink, maxRecs, capacity)
	tr.ser = &Serialize{next: tr.bat}
	return tr
}

// OnReceive sets the upcall for tuples arriving from the network.
func (tr *Transport) OnReceive(fn func(from string, t *tuple.Tuple)) { tr.onReceive = fn }

// OnSent sets an accounting tap invoked once per tuple per wire
// transmission (retransmissions included). The first tuple of each
// datagram is charged the frame header, so the per-call sizes sum to
// the exact data bytes on the wire.
func (tr *Transport) OnSent(fn func(to string, t *tuple.Tuple, wireBytes int, retransmit bool)) {
	tr.onSent = fn
}

// OnDrop sets the upcall for tuples the transport gives up on, with a
// structured cause: RetryExhausted and PeerDead for tuples abandoned
// after the retry budget (the latter once the peer is presumed dead),
// BacklogOverflow for tuples refused by a full per-destination queue,
// and SessionClosed for tuples still queued or in flight at Close.
func (tr *Transport) OnDrop(fn func(to string, t *tuple.Tuple, cause DropCause)) { tr.onDrop = fn }

// Stats returns a copy of the counters.
func (tr *Transport) Stats() Stats { return tr.stats }

// Config returns the configuration the transport was built with —
// consumers like the health evaluator read thresholds (QueueCap) off
// it.
func (tr *Transport) Config() Config { return tr.cfg }

// Send queues t for delivery to the given address through the send
// chain, making the peer's send half if it has none. It stamps the
// peer's send-path activity clock; a flow resuming after sitting idle
// past the TTL is reclaimed first — right here, not just by the janitor
// — so a resumed flow always starts under a fresh epoch instead of
// continuing a sequence space the peer may have forgotten.
func (tr *Transport) Send(to string, t *tuple.Tuple) {
	if tr.closed {
		return
	}
	p := tr.peer(to)
	ttl, now := tr.cfg.flowTTL(), tr.loop.Now()
	if ttl > 0 && p.send != nil && now-p.send.sentAt >= ttl {
		tr.reclaimSend(p)
	}
	if p.send == nil {
		p.send = &sendHalf{cc: ccState{cwnd: tr.cfg.WindowInit, ssthresh: windowMax, rto: tr.cfg.InitialRTO}}
	}
	p.send.sentAt = now
	if ttl > 0 {
		tr.armJanitor()
	}
	tr.ser.push(p, t)
}

// Deliver is the network's inbound entry point; wire it as the
// netif.Attach callback.
func (tr *Transport) Deliver(from string, frame []byte) {
	tr.dfr.deliver(from, frame)
}

// Close tears the stack down: every tuple still in flight or in the
// backlog is reported through OnDrop (it will never be delivered), all
// timers stop, and every peer record is dropped — a closed transport
// holds no state for any peer.
func (tr *Transport) Close() {
	if tr.closed {
		return
	}
	tr.closed = true
	if tr.rty != nil {
		for _, p := range tr.order {
			if p.send != nil {
				tr.rty.close(p)
			}
		}
	}
	for _, p := range tr.order {
		if p.send != nil {
			tr.bat.close(p)
		}
		if p.rcv.ackTimer != nil {
			p.rcv.ackTimer.Cancel()
		}
	}
	tr.peers, tr.order = nil, nil
	if tr.janTimer != nil {
		tr.janTimer.Cancel()
		tr.janTimer = nil
	}
}

// dropUp is the failure classifier's choke point: every abandoned tuple
// passes through here exactly once with its cause, feeding the global
// and per-destination cause vectors before the application upcall.
func (tr *Transport) dropUp(p *peer, t *tuple.Tuple, cause DropCause) {
	tr.stats.Dropped[cause]++
	p.send.acct.drops[cause]++
	if tr.onDrop != nil {
		tr.onDrop(p.addr, t, cause)
	}
}

// deliverUp is the Deliver stage: it hands received tuples to the
// application and keeps the per-source delivery counter.
func (tr *Transport) deliverUp(p *peer, tuples []*tuple.Tuple) {
	p.rcv.recvd += int64(len(tuples))
	if tr.onReceive == nil {
		return
	}
	for _, t := range tuples {
		if tr.closed {
			return
		}
		tr.onReceive(p.addr, t)
	}
}

// DestStats is per-peer wire accounting plus live control state, merged
// across this node's sender state toward the peer and receiver state
// from it — one row of the sysNet introspection relation.
type DestStats struct {
	Addr      string
	Sent      int64      // data records transmitted toward Addr (retransmissions included)
	Recvd     int64      // tuples delivered upward from Addr (post-dedup)
	Bytes     int64      // data bytes put on the wire toward Addr
	Retries   int64      // records retransmitted toward Addr
	Cwnd      float64    // current congestion window, datagrams
	RTO       float64    // current retransmission timeout, seconds
	Backlog   int        // tuples queued behind the window
	BatchFill float64    // mean records per data datagram (Sent / datagrams)
	Drops     DropCounts // classified drops toward Addr, indexed by DropCause
}

// PerDest returns per-peer accounting for every address this transport
// holds state for, sorted by address.
func (tr *Transport) PerDest() []DestStats {
	return tr.PerDestInto(nil)
}

// PerDestInto is PerDest writing into a caller-owned buffer — the
// introspection refresh runs it once a second per node, so the steady
// state must not allocate.
func (tr *Transport) PerDestInto(out []DestStats) []DestStats {
	out = out[:0]
	for _, p := range tr.order {
		st := DestStats{Addr: p.addr, Recvd: p.rcv.recvd, Cwnd: tr.cfg.WindowInit, RTO: tr.cfg.InitialRTO}
		if s := p.send; s != nil {
			a := &s.acct
			st.Sent, st.Bytes, st.Retries, st.Drops = a.sent, a.sentBytes, a.retries, a.drops
			st.Cwnd, st.RTO, st.Backlog = s.cc.cwnd, s.cc.rto, len(s.q.recs)
			if a.frames > 0 {
				st.BatchFill = float64(a.sent) / float64(a.frames)
			}
		}
		out = append(out, st)
	}
	return out
}

// String summarizes transport state for diagnostics: the composed
// chains, send then receive, and the headline counters.
func (tr *Transport) String() string {
	send, recv := "Serialize→Batch", "Deframe"
	if !tr.cfg.Unreliable {
		send += "→CCTx→Retry"
		recv += "→Ack→Dedup"
	}
	return fmt.Sprintf("transport{%s→Frame / %s→Deliver peers=%d sent=%d frames=%d rexmit=%d drops=%d}",
		send, recv, len(tr.peers), tr.stats.TuplesSent, tr.stats.Frames,
		tr.stats.Retransmits, tr.stats.Drops)
}

// clampRTO bounds an RTO estimate to the configured window.
func (tr *Transport) clampRTO(rto float64) float64 {
	return math.Min(math.Max(rto, tr.cfg.MinRTO), tr.cfg.MaxRTO)
}
