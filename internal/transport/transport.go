// Package transport implements P2's networking subsystem as the element
// chain §3.4 describes: "socket handling, packet scheduling, congestion
// control, reliable transmission, data serialization, and dispatch" are
// not a black box below the dataflow — they are dataflow, small elements
// composed per node.
//
// The send path is Serialize → Batch → CCTx → Retry → Frame: tuples are
// marshaled, coalesced into MTU-budget datagrams per destination,
// admitted through a per-destination AIMD congestion window, remembered
// for RTO-driven retransmission, and framed onto a netif.Endpoint. The
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
// Which elements a node composes is chosen by a StackSpec, so the
// Unreliable mode is merely a shorter chain (Serialize → Batch → Frame,
// Deframe → Deliver) rather than branches inside a monolith, and future
// policies (priority scheduling, per-rule QoS) are new elements.
//
// One Transport lives per P2 node. All state transitions happen on the
// node's event loop.
package transport

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
	WindowMax  float64 // cap on the window
	QueueCap   int     // per-destination backlog (tuples) behind the window
	// AckDelay is how long the receiver waits for a reverse-path data
	// frame to piggyback the cumulative ack before emitting a bare ack
	// datagram. <= 0 acknowledges at the end of the current handler.
	AckDelay float64
	// DeadStrikes is how many consecutive batches toward one peer may
	// exhaust the retry budget, with no intervening acknowledgment,
	// before the peer is presumed dead: drops up to the threshold
	// classify as RetryExhausted, drops past it as PeerDead. 0 uses
	// DefaultDeadStrikes.
	DeadStrikes int
	Unreliable  bool // fire-and-forget chain: no acks, no retries, no window
	NoBatch     bool // one tuple per datagram (the pre-batching framing)
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

// DefaultDeadStrikes is the DeadStrikes value a zero Config field
// resolves to.
const DefaultDeadStrikes = 2

// deadStrikes resolves the Config field's default.
func (c Config) deadStrikes() int {
	if c.DeadStrikes <= 0 {
		return DefaultDeadStrikes
	}
	return c.DeadStrikes
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		MaxRetries: 4,
		InitialRTO: 1.0,
		MinRTO:     0.2,
		MaxRTO:     8.0,
		WindowInit: 4,
		WindowMax:  64,
		QueueCap:   512,
		AckDelay:   0.02,
	}
}

// StackSpec names the element chain a transport composes. It is derived
// from Config today; keeping it a first-class value means new scenarios
// (priority schedulers, per-rule QoS elements) extend the spec instead
// of growing conditionals inside a monolithic transport.
type StackSpec struct {
	Reliable bool // CCTx + Retry on the send path, Ack + Dedup on receive
	Batching bool // MTU-budget coalescing in the Batch element
}

// Spec derives the element chain from the configuration.
func (c Config) Spec() StackSpec {
	return StackSpec{Reliable: !c.Unreliable, Batching: !c.NoBatch}
}

// String renders the composed chains, send then receive.
func (s StackSpec) String() string {
	send, recv := "Serialize→Batch", "Deframe"
	if s.Reliable {
		send += "→CCTx→Retry"
		recv += "→Ack→Dedup"
	}
	return send + "→Frame / " + recv + "→Deliver"
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
	// PeerDead: the retry budget was exhausted DeadStrikes consecutive
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

// Total sums the vector.
func (d DropCounts) Total() int64 {
	var n int64
	for _, v := range d {
		n += v
	}
	return n
}

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
// hand each other. Pokes are idempotent retry hints: an element may
// receive one it no longer cares about, and re-examines its state.
type poke func()

// batchSink is the downstream port type on the send path: the Batch
// element pushes packed batches into CCTx (reliable chains) or straight
// into Frame. A false return means the batch was NOT consumed (the
// congestion window is full) and pk fires when capacity frees.
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
	spec StackSpec

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

	srcs   map[string]*recvState
	accts  map[string]*destAcct
	stats  Stats
	closed bool

	// Peer registry for allocation-free accounting snapshots: every
	// address currently present in a sender or receiver map, kept
	// sorted. Additions are incremental; the flow janitor removes an
	// address once its state is fully reclaimed, so PerDestInto walks
	// the live working set without building a merge map per call.
	peerSet   map[string]bool
	peerOrder []string

	// Per-peer flow metadata: the send-path idle stamp and the flow
	// restart count (the low 16 bits of the wire epoch). Entries are
	// tiny and survive eviction — the restart count must only ever
	// grow — so this map is the one piece of per-peer state that is
	// O(peers ever contacted) rather than O(working set).
	flows    map[string]*flowSend
	janArmed bool
	janTimer *eventloop.Timer
}

// flowSend is one peer's send-path flow metadata.
type flowSend struct {
	last float64 // loop time of the most recent Send toward the peer
	bump uint16  // flow restarts; low half of the wire epoch
}

// New assembles the element chain cfg.Spec() names, bound to ep. Wire
// ep's delivery callback to Deliver.
func New(loop eventloop.Loop, ep netif.Endpoint, cfg Config) *Transport {
	tr := &Transport{
		loop:  loop,
		ep:    ep,
		cfg:   cfg,
		spec:  cfg.Spec(),
		srcs:  make(map[string]*recvState),
		accts: make(map[string]*destAcct),
		flows: make(map[string]*flowSend),
	}
	tr.frm = &Frame{tr: tr}
	tr.dfr = &Deframe{tr: tr}

	mtu := ep.MTU()
	if mtu <= 0 {
		mtu = netif.DefaultMTU
	}
	maxRecs := 1
	if tr.spec.Batching {
		maxRecs = maxBatchRecords
	}
	var sink batchSink = tr.frm
	capacity := 0 // the unreliable chain drains every turn; no bound needed
	if tr.spec.Reliable {
		tr.cc = newCCTx(tr)
		tr.rty = newRetry(tr)
		tr.ack = &Ack{tr: tr}
		tr.cc.next = tr.rty
		tr.rty.next = tr.frm
		sink = tr.cc
		capacity = cfg.QueueCap
	}
	tr.bat = newBatch(tr, sink, mtu-maxDataHeaderLen, maxRecs, capacity)
	tr.ser = &Serialize{tr: tr, next: tr.bat}
	return tr
}

// Spec returns the element chain this transport composes.
func (tr *Transport) Spec() StackSpec { return tr.spec }

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

// Send queues t for delivery to the given address through the send chain.
func (tr *Transport) Send(to string, t *tuple.Tuple) {
	if tr.closed {
		return
	}
	tr.touchFlow(to)
	tr.ser.push(to, t)
}

// touchFlow stamps the send-path activity clock for one peer. A flow
// resuming after sitting idle past the TTL is evicted first — right
// here, not just by the janitor — so a resumed flow always starts
// under a fresh epoch instead of continuing a sequence space the peer
// may have forgotten.
func (tr *Transport) touchFlow(dst string) {
	ttl := tr.cfg.flowTTL()
	if ttl <= 0 {
		return
	}
	now := tr.loop.Now()
	fs, ok := tr.flows[dst]
	if !ok {
		fs = &flowSend{}
		tr.flows[dst] = fs
	} else if now-fs.last >= ttl {
		tr.evictFlow(dst, fs)
	}
	fs.last = now
	tr.armJanitor()
}

// evictFlow reclaims one peer's sender-side state: backlog queue,
// congestion window, RTT estimate, retransmission ledger, and wire
// accounting. It refuses while anything toward the peer is still live
// (queued records, a scheduled flush, batches in flight, a stalled
// window poke) — sequence continuity must hold while frames can still
// reach the peer; the janitor simply retries next sweep. If sequence
// space was consumed, the flow's restart count bumps so the next frame
// carries a higher epoch and the peer rebinds.
func (tr *Transport) evictFlow(dst string, fs *flowSend) {
	if q, ok := tr.bat.qs[dst]; ok && (len(q.recs) > 0 || q.armed) {
		return
	}
	if tr.rty != nil {
		if d, ok := tr.rty.dests[dst]; ok && (len(d.pend) > 0 || d.timer != nil) {
			return
		}
	}
	needBump := false
	if tr.cc != nil {
		if st, ok := tr.cc.dests[dst]; ok {
			if st.inflight > 0 || st.stalled != nil {
				return
			}
			needBump = st.nextSeq > 0
		}
	}
	if needBump {
		if fs.bump == 0xffff {
			return // flow-epoch space exhausted: keep the state instead
		}
		fs.bump++
	}
	delete(tr.bat.qs, dst)
	if tr.rty != nil {
		delete(tr.rty.dests, dst)
	}
	if tr.cc != nil {
		delete(tr.cc.dests, dst)
	}
	delete(tr.accts, dst)
	tr.unregisterPeer(dst)
}

// armJanitor schedules the flow sweep if one is not already pending.
func (tr *Transport) armJanitor() {
	if tr.janArmed || tr.closed {
		return
	}
	ttl := tr.cfg.flowTTL()
	if ttl <= 0 {
		return
	}
	tr.janArmed = true
	tr.janTimer = tr.loop.After(ttl/2, tr.sweepFlows)
}

// sweepFlows is the flow janitor: it evicts sender-side state idle past
// the TTL and receiver-side state idle past twice the TTL. The doubled
// receive lifetime is the ordering argument that makes eviction safe
// with no handshake: by the time this node forgets a peer's inbound
// stream, a sender resuming toward it has always sat idle past its own
// (shorter) TTL and therefore opens a fresh epoch, which rebinds the
// newly created receive state instead of resuming into it.
func (tr *Transport) sweepFlows() {
	tr.janArmed = false
	tr.janTimer = nil
	if tr.closed {
		return
	}
	ttl := tr.cfg.flowTTL()
	now := tr.loop.Now()
	for _, dst := range sortedKeys(tr.flows) {
		fs := tr.flows[dst]
		if now-fs.last >= ttl {
			tr.evictFlow(dst, fs)
		}
	}
	// Receive state must additionally outlive the longest possible
	// retransmission episode: a delivered-but-unacked batch can arrive
	// again as late as the full backoff span (MaxRTO-capped, so
	// MaxRTO*(MaxRetries+1) plus flight slack) after its first
	// transmission, and forgetting the dedup memory before then would
	// deliver it twice.
	recvTTL := 2 * ttl
	if span := tr.cfg.MaxRTO * float64(tr.cfg.MaxRetries+2); span > recvTTL {
		recvTTL = span
	}
	for _, from := range sortedKeys(tr.srcs) {
		rs := tr.srcs[from]
		if now-rs.lastAt >= recvTTL && !rs.ackPending && !rs.ackArmed {
			delete(tr.srcs, from)
			tr.unregisterPeer(from)
		}
	}
	// Keep sweeping while any reclaimable state remains.
	if len(tr.accts) > 0 || len(tr.srcs) > 0 || len(tr.bat.qs) > 0 ||
		(tr.cc != nil && len(tr.cc.dests) > 0) {
		tr.armJanitor()
	}
}

// wireEpoch is the epoch stamped on data frames toward dst: the node's
// session incarnation (Config.Epoch) in the high 16 bits, the flow's
// restart count in the low 16. Both components only grow, so peers
// need one comparison to order incarnations and flow restarts alike.
func (tr *Transport) wireEpoch(dst string) uint32 {
	e := tr.cfg.Epoch << 16
	if fs, ok := tr.flows[dst]; ok {
		e |= uint32(fs.bump)
	}
	return e
}

// Deliver is the network's inbound entry point; wire it as the
// netif.Attach callback.
func (tr *Transport) Deliver(from string, frame []byte) {
	tr.dfr.deliver(from, frame)
}

// Close tears the stack down: every tuple still in the backlog or in
// flight is reported through OnDrop (it will never be delivered), all
// timers stop, and receiver state is discarded — a closed transport
// holds no state for any peer.
func (tr *Transport) Close() {
	if tr.closed {
		return
	}
	tr.closed = true
	if tr.rty != nil {
		tr.rty.close()
	}
	tr.bat.close()
	for _, rs := range tr.srcs {
		if rs.ackTimer != nil {
			rs.ackTimer.Cancel()
		}
	}
	tr.srcs = make(map[string]*recvState)
	if tr.cc != nil {
		tr.cc.dests = make(map[string]*ccState)
	}
	if tr.janTimer != nil {
		tr.janTimer.Cancel()
		tr.janTimer = nil
	}
	tr.janArmed = false
}

// dropUp is the failure classifier's choke point: every abandoned tuple
// passes through here exactly once with its cause, feeding the global
// and per-destination cause vectors before the application upcall.
func (tr *Transport) dropUp(dst string, t *tuple.Tuple, cause DropCause) {
	tr.stats.Dropped[cause]++
	tr.acct(dst).drops[cause]++
	if tr.onDrop != nil {
		tr.onDrop(dst, t, cause)
	}
}

// deliverUp is the Deliver stage: it hands received tuples to the
// application and keeps the per-source delivery counter.
func (tr *Transport) deliverUp(from string, tuples []*tuple.Tuple) {
	rs := tr.src(from)
	rs.recvd += int64(len(tuples))
	if tr.onReceive == nil {
		return
	}
	for _, t := range tuples {
		if tr.closed {
			return
		}
		tr.onReceive(from, t)
	}
}

// peerEpoch returns the session epoch this node has learned for dst's
// inbound stream — stamped into outgoing acknowledgments so dst can
// tell whether they describe its current incarnation. Zero until a data
// frame from dst arrives; a zero-epoch ack always carries cum 0, which
// clears nothing.
func (tr *Transport) peerEpoch(dst string) uint32 {
	if rs, ok := tr.srcs[dst]; ok && rs.epochSet {
		return rs.epoch
	}
	return 0
}

// src returns (creating if needed) the receive state for one peer and
// stamps its activity clock — every call sits on an inbound data path,
// so the stamp is exactly "last data from this peer".
func (tr *Transport) src(from string) *recvState {
	rs, ok := tr.srcs[from]
	if !ok {
		rs = &recvState{high: make(map[uint64]bool)}
		tr.srcs[from] = rs
		tr.armJanitor()
	}
	rs.lastAt = tr.loop.Now()
	return rs
}

// acct returns (creating if needed) the wire accounting for one peer.
func (tr *Transport) acct(dst string) *destAcct {
	a, ok := tr.accts[dst]
	if !ok {
		a = &destAcct{}
		tr.accts[dst] = a
	}
	return a
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
	Frames    int64      // data datagrams sent toward Addr
	Cwnd      float64    // current congestion window, datagrams
	RTO       float64    // current retransmission timeout, seconds
	Backlog   int        // tuples queued behind the window
	BatchFill float64    // mean records per data datagram (Sent / Frames)
	Drops     DropCounts // classified drops toward Addr, indexed by DropCause
}

// PerDest returns per-peer accounting for every address this transport
// has sent to or received from, sorted by address.
func (tr *Transport) PerDest() []DestStats {
	return tr.PerDestInto(nil)
}

// PerDestInto is PerDest writing into a caller-owned buffer — the
// introspection refresh runs it once a second per node, so the steady
// state must not allocate. The peer registry is reconciled
// incrementally (additions here, removals by the flow janitor); the
// sorted walk then reads each accounting map directly.
func (tr *Transport) PerDestInto(out []DestStats) []DestStats {
	if tr.peerSet == nil {
		tr.peerSet = make(map[string]bool)
	}
	for addr := range tr.accts {
		tr.registerPeer(addr)
	}
	if tr.cc != nil {
		for addr := range tr.cc.dests {
			tr.registerPeer(addr)
		}
	}
	for addr := range tr.bat.qs {
		tr.registerPeer(addr)
	}
	for addr := range tr.srcs {
		tr.registerPeer(addr)
	}
	out = out[:0]
	for _, addr := range tr.peerOrder {
		st := DestStats{Addr: addr, Cwnd: tr.cfg.WindowInit, RTO: tr.cfg.InitialRTO}
		if a, ok := tr.accts[addr]; ok {
			st.Sent, st.Bytes, st.Retries, st.Frames = a.sent, a.sentBytes, a.retries, a.frames
			st.Drops = a.drops
			if a.frames > 0 {
				st.BatchFill = float64(a.sent) / float64(a.frames)
			}
		}
		if tr.cc != nil {
			if cs, ok := tr.cc.dests[addr]; ok {
				st.Cwnd, st.RTO = cs.cwnd, cs.rto
			}
		}
		if q, ok := tr.bat.qs[addr]; ok {
			st.Backlog = len(q.recs)
		}
		if rs, ok := tr.srcs[addr]; ok {
			st.Recvd = rs.recvd
		}
		out = append(out, st)
	}
	return out
}

// registerPeer adds addr to the sorted peer registry on first sight.
func (tr *Transport) registerPeer(addr string) {
	if tr.peerSet[addr] {
		return
	}
	tr.peerSet[addr] = true
	i := sort.SearchStrings(tr.peerOrder, addr)
	tr.peerOrder = slices.Insert(tr.peerOrder, i, addr)
}

// unregisterPeer removes addr from the peer registry once no state map
// knows it — the flow is fully reclaimed, the accounting snapshot stops
// reporting it, and its sysNet row ages out of the soft-state table.
func (tr *Transport) unregisterPeer(addr string) {
	if _, ok := tr.accts[addr]; ok {
		return
	}
	if tr.cc != nil {
		if _, ok := tr.cc.dests[addr]; ok {
			return
		}
	}
	if _, ok := tr.bat.qs[addr]; ok {
		return
	}
	if _, ok := tr.srcs[addr]; ok {
		return
	}
	if !tr.peerSet[addr] {
		return
	}
	delete(tr.peerSet, addr)
	if i := sort.SearchStrings(tr.peerOrder, addr); i < len(tr.peerOrder) && tr.peerOrder[i] == addr {
		tr.peerOrder = slices.Delete(tr.peerOrder, i, i+1)
	}
}

// Window reports the current congestion window toward to — exposed for
// tests and the olgc inspector.
func (tr *Transport) Window(to string) float64 {
	if tr.cc != nil {
		if st, ok := tr.cc.dests[to]; ok {
			return st.cwnd
		}
	}
	return tr.cfg.WindowInit
}

// RTO reports the current retransmission timeout toward to.
func (tr *Transport) RTO(to string) float64 {
	if tr.cc != nil {
		if st, ok := tr.cc.dests[to]; ok {
			return st.rto
		}
	}
	return tr.cfg.InitialRTO
}

// InFlight reports unacknowledged tuples toward to.
func (tr *Transport) InFlight(to string) int {
	if tr.rty == nil {
		return 0
	}
	n := 0
	for _, wb := range tr.rty.pending(to) {
		n += len(wb.recs)
	}
	return n
}

// Backlog reports tuples queued toward to behind the congestion window.
func (tr *Transport) Backlog(to string) int {
	if q, ok := tr.bat.qs[to]; ok {
		return len(q.recs)
	}
	return 0
}

// String summarizes transport state for diagnostics.
func (tr *Transport) String() string {
	return fmt.Sprintf("transport{%s dests=%d sent=%d frames=%d rexmit=%d drops=%d}",
		tr.spec, len(tr.accts), tr.stats.TuplesSent, tr.stats.Frames,
		tr.stats.Retransmits, tr.stats.Drops)
}

// clampRTO bounds an RTO estimate to the configured window.
func (tr *Transport) clampRTO(rto float64) float64 {
	return math.Min(math.Max(rto, tr.cfg.MinRTO), tr.cfg.MaxRTO)
}
