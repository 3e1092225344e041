// Package simnet is a discrete-event network simulator standing in for
// the paper's Emulab testbed (§5: 10 domain routers, 100 stub nodes,
// 100 ms inter-domain and 2 ms intra-domain latency, 100 Mbps router
// and 10 Mbps stub capacities).
//
// The simulator models, per datagram: serialization delay against the
// sender's access-link capacity (with sender-side queueing), propagation
// latency from the transit-stub topology, optional uniform loss, and
// node death (datagrams to or from dead nodes vanish, as they would
// with a crashed process). Experiments are deterministic given a seed:
// all randomness is drawn from per-node streams derived from
// (Config.Seed, address), so one node's outcomes are independent of how
// other nodes' events interleave.
//
// Nodes are partitioned across the shards of an eventloop.ShardedSim
// by domain (shard = domain mod P), each node's record owned by its
// shard per the shard-ownership rule (NewSharded). New builds a net of
// one shard on a plain eventloop.Sim, with no coordinator. A datagram
// is scheduled as an arrival, pooled on the destination shard, fired by
// Sim.AtFree at exactly the arrival time the sender computed. An
// intra-domain datagram never leaves its shard, so it is scheduled
// directly; so is every datagram of a net without a coordinator. A
// cross-domain datagram of a sharded net is staged in the sending
// shard's outbox and merged at the next epoch barrier in canonical
// (arrival time, sender, sender sequence) order before being scheduled
// on the destination shard. Because the coordinator's lookahead is the
// minimum cross-domain latency (Config.Lookahead), a staged datagram's
// arrival always falls at or beyond the barrier doing the scheduling,
// so staging never delays delivery; it only fixes a deterministic merge
// order. Every event of a domain runs on one shard at every P, and
// whatever schedules it (the domain's own handlers, a canonical merge,
// the coordinator) does so in an order independent of the shard count,
// which is what makes a P-shard run bit-identical to a 1-shard run.
//
// Liveness is judged by the destination's shard when a datagram lands,
// since a sender cannot peek at another shard's records: a datagram to
// a dead node is charged to the destination, and one to an address that
// never attached to a per-shard orphan counter.
//
// Byte counters per node feed the maintenance-bandwidth figures.
package simnet

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"

	"p2/internal/eventloop"
	"p2/internal/netif"
)

// Config describes the topology and link properties. The zero-ish
// DefaultConfig reproduces the paper's uniform two-tier Emulab model;
// the WAN fields below graduate it to a measured-latency-matrix
// topology with per-link variation — every added effect is modeled
// from sender-owned state only (the sender's per-node rng stream and
// the sender's link clock), which is what keeps a sharded run
// bit-identical at every shard count.
type Config struct {
	Domains      int     // number of stub domains (paper: 10)
	IntraLatency float64 // seconds between nodes in one domain (paper: 2 ms)
	InterLatency float64 // seconds across domains (paper: 100 ms)
	StubBps      float64 // access link capacity in bytes/sec (paper: 10 Mbps)
	LossRate     float64 // uniform datagram loss probability
	Seed         int64   // rng seed; per-node streams derive from (Seed, addr)

	// Matrix, when non-nil, replaces the uniform two-tier latency model
	// with a measured one-way propagation matrix: Matrix[i][j] is the
	// base delay (seconds) from a node in domain i to a node in domain
	// j, and the diagonal is the intra-domain delay. The domain count
	// becomes len(Matrix), overriding Domains. Every off-diagonal entry
	// must be positive for sharded runs (their minimum is the
	// conservative lookahead). TransitStubWAN builds one with
	// transit-stub structure.
	Matrix [][]float64

	// Jitter adds per-datagram delay variation: each datagram's
	// propagation grows by U[0, Jitter) times its base latency, drawn
	// from the sender's stream. Additive-only, so the lookahead derived
	// from the base matrix stays sound.
	Jitter float64

	// QueueMean, when positive, adds a stochastic queuing delay to every
	// cross-domain datagram: an exponential draw with this mean,
	// modeling contention at the domain's border router without shared
	// queue state (which would break cross-shard determinism).
	QueueMean float64

	// TransitBps, when positive, charges cross-domain datagrams a
	// backbone serialization delay of size/TransitBps on top of the
	// access-link serialization (paper: 100 Mbps router links).
	TransitBps float64
}

// HeaderBytes is the per-datagram overhead every send is charged: the
// IPv4 and UDP headers.
const HeaderBytes = 28

// DefaultConfig reproduces the paper's Emulab topology.
func DefaultConfig() Config {
	return Config{
		Domains:      10,
		IntraLatency: 0.002,
		InterLatency: 0.100,
		StubBps:      10e6 / 8, // 10 Mbps
		LossRate:     0,
		Seed:         1,
	}
}

// Lookahead returns the smallest base delay between two different
// domains — the sound conservative epoch bound for a sharded run. Pass
// NewShardedSim this value when building the coordinator for a sharded
// net. Placement is shard = domain mod P, so any datagram that crosses
// shards crosses domains; jitter, queuing, serialization and extra
// latency only add delay, so no such datagram arrives sooner. With a
// single domain nothing crosses shards and the bound is +Inf.
func (c Config) Lookahead() float64 {
	min := math.Inf(1)
	if len(c.Matrix) > 0 {
		for i, row := range c.Matrix {
			for j, v := range row {
				if i != j && v < min {
					min = v
				}
			}
		}
		return min
	}
	if c.Domains > 1 {
		min = c.InterLatency + 2*c.IntraLatency
	}
	return min
}

// domains resolves the effective domain count: the matrix dimension
// when a matrix is set, Domains otherwise (floored at 1).
func (c Config) domains() int {
	if n := len(c.Matrix); n > 0 {
		return n
	}
	if c.Domains <= 0 {
		return 1
	}
	return c.Domains
}

// baseLatency is the one-way base propagation delay between two
// domains — a pure function of the Config, usable from any shard.
func (c Config) baseLatency(da, db int) float64 {
	if len(c.Matrix) > 0 {
		return c.Matrix[da][db]
	}
	if da == db {
		return c.IntraLatency
	}
	return c.InterLatency + 2*c.IntraLatency
}

// TransitStubWAN builds a measured-latency-matrix WAN topology with
// transit-stub structure (GT-ITM style): transits backbone routers,
// each serving stubsPerTransit stub domains. A datagram between stub
// domains climbs its stub's uplink, crosses the backbone between the
// two transit routers, and descends the destination's uplink; the
// seeded generator draws per-link distances so no two links match —
// the realism the uniform two-tier model lacks. The returned Config
// also carries WAN defaults for the dynamic effects: 10% jitter, 2 ms
// mean border-router queuing, 100 Mbps backbone serialization. Loss
// (uniform or bursty) is left off; enable it per experiment.
func TransitStubWAN(transits, stubsPerTransit int, seed int64) Config {
	if transits < 1 {
		transits = 1
	}
	if stubsPerTransit < 1 {
		stubsPerTransit = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Backbone: symmetric transit-to-transit distances, 10-50 ms.
	tt := make([][]float64, transits)
	for i := range tt {
		tt[i] = make([]float64, transits)
	}
	for i := 0; i < transits; i++ {
		for j := i + 1; j < transits; j++ {
			d := 0.010 + 0.040*rng.Float64()
			tt[i][j], tt[j][i] = d, d
		}
	}
	n := transits * stubsPerTransit
	// Stub uplinks: 2-12 ms to the serving transit router; intra-domain
	// delay 0.5-2 ms.
	up := make([]float64, n)
	intra := make([]float64, n)
	for s := 0; s < n; s++ {
		up[s] = 0.002 + 0.010*rng.Float64()
		intra[s] = 0.0005 + 0.0015*rng.Float64()
	}
	m := make([][]float64, n)
	for a := 0; a < n; a++ {
		m[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			switch {
			case a == b:
				m[a][b] = intra[a]
			case a/stubsPerTransit == b/stubsPerTransit:
				// Sibling stubs: up, around the shared transit router, down.
				m[a][b] = up[a] + 0.001 + up[b]
			default:
				m[a][b] = up[a] + tt[a/stubsPerTransit][b/stubsPerTransit] + up[b]
			}
		}
	}
	return Config{
		Matrix:     m,
		StubBps:    10e6 / 8,
		TransitBps: 100e6 / 8,
		Jitter:     0.10,
		QueueMean:  0.002,
		Seed:       seed,
	}
}

// Stats aggregates one node's traffic counters.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	PacketsSent   int64
	PacketsRecv   int64
	PacketsLost   int64
}

// Net is the simulated network. Attach / Kill / Partition / the Stats
// family are coordinator-only (between epochs; with no coordinator, on
// the simulation goroutine), while Send on an endpoint runs on the
// owning node's shard.
type Net struct {
	ss  *eventloop.ShardedSim // the coordinator; nil for a net built by New
	cfg Config

	shards []*shardNet
	// partitioned pairs; key "a|b" with a < b lexically. Mutated by the
	// driver only (coordinator/simulation goroutine); read at send time.
	cuts map[string]bool
	// extraLatency is added to every datagram's propagation delay — the
	// latency-spike fault knob. Mutated by the driver only; read at send
	// time. Always >= 0, so a sharded run stays sound: added delay only
	// pushes arrivals further past the barrier, never inside the epoch.
	extraLatency float64
	// merge is Exchange's buffer, reused across barriers.
	merge []datagram
}

// shardNet is the slice of the network owned by one shard: its node
// records and the outbox of datagrams sent during the current epoch.
// Only the owning shard touches these during an epoch; the coordinator
// drains outboxes at barriers.
type shardNet struct {
	loop     *eventloop.Sim
	nodes    map[string]*node
	outbox   []datagram
	orphaned int64      // datagrams to addresses that never attached
	free     []*arrival // recycled arrivals of datagrams this shard delivered
}

type node struct {
	addr     string
	domain   int
	shard    int
	deliver  netif.DeliverFunc
	rng      *rand.Rand // per-node stream: (Seed, addr)-derived
	sendSeq  uint64     // datagrams sent; canonical merge tie-breaker
	linkFree float64    // time the access link next becomes idle
	dead     bool
	stats    Stats
}

// datagram is one in-flight message of a sharded net.
type datagram struct {
	arrive  float64
	from    string
	seq     uint64 // sender's sendSeq at send time
	to      string
	dstSh   int
	size    int64
	payload []byte
}

// arrival is one datagram scheduled on the shard that delivers it.
// Arrivals are pooled on that shard's free list, and each is scheduled
// with its land method value, bound once when the arrival is built, so
// a datagram in flight costs the loop one pooled Timer and no closure.
// The list is touched by the shard's own handlers (an intra-domain send
// and every landing) and by Exchange, which runs while every shard is
// parked.
type arrival struct {
	sh      *shardNet
	from    string
	to      string
	size    int64
	payload []byte
	land    func() // a.deliver, bound once
}

// maxArrivalPool bounds each shard's free list of arrivals, as
// maxTimerPool bounds the loop's Timer pool.
const maxArrivalPool = 256

// arrive schedules delivery of payload from from to to at time at on sh.
func (sh *shardNet) arrive(at float64, from, to string, size int64, payload []byte) {
	var a *arrival
	if n := len(sh.free); n > 0 {
		a = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		a = &arrival{sh: sh}
		a.land = a.deliver
	}
	a.from, a.to, a.size, a.payload = from, to, size, payload
	sh.loop.AtFree(at, a.land)
}

// deliver lands the datagram: it copies the arrival out and returns it
// to the free list before delivering, so a handler that sends reuses
// it. Liveness is judged here, by the owning shard.
func (a *arrival) deliver() {
	sh, from, to, size, payload := a.sh, a.from, a.to, a.size, a.payload
	if len(sh.free) < maxArrivalPool {
		a.from, a.to, a.payload = "", "", nil
		sh.free = append(sh.free, a)
	}
	dst := sh.nodes[to]
	if dst == nil {
		sh.orphaned++
		return
	}
	if dst.dead {
		dst.stats.PacketsLost++
		return
	}
	dst.stats.BytesReceived += size
	dst.stats.PacketsRecv++
	dst.deliver(from, payload)
}

// New creates a simulated network of one shard on loop, with no
// coordinator: every datagram is scheduled when it is sent.
func New(loop *eventloop.Sim, cfg Config) *Net {
	n := newNet(cfg)
	n.shards = []*shardNet{{loop: loop, nodes: make(map[string]*node)}}
	return n
}

// NewSharded creates a simulated network spread across the shards of
// ss. The caller must have built ss with a lookahead no larger than
// cfg.Lookahead(); anything larger would let a cross-domain datagram
// arrive inside the epoch that sent it, which the barrier exchange
// cannot express.
func NewSharded(ss *eventloop.ShardedSim, cfg Config) *Net {
	n := newNet(cfg)
	if la := n.cfg.Lookahead(); la <= 0 {
		panic("simnet: sharded mode requires positive cross-domain latencies")
	} else if ss.Lookahead() > la {
		panic(fmt.Sprintf("simnet: lookahead %g exceeds minimum cross-domain latency %g", ss.Lookahead(), la))
	}
	n.ss = ss
	for i := 0; i < ss.Shards(); i++ {
		n.shards = append(n.shards, &shardNet{loop: ss.Shard(i), nodes: make(map[string]*node)})
	}
	ss.AddExchanger(n)
	return n
}

func newNet(cfg Config) *Net {
	cfg.Domains = cfg.domains()
	return &Net{cfg: cfg, cuts: make(map[string]bool)}
}

// DomainOf returns addr's stub domain: a pure function of the address,
// so placement is stable across runs and computable without touching
// any node records — cmd/p2sim previews node→shard placement maps from
// the Config alone.
func (c Config) DomainOf(addr string) int {
	d := c.domains()
	h := fnv.New32a()
	h.Write([]byte(addr))
	return int(h.Sum32() % uint32(d))
}

// DomainOf returns addr's stub domain (see Config.DomainOf).
func (n *Net) DomainOf(addr string) int { return n.cfg.DomainOf(addr) }

// ShardOf returns the shard owning addr: whole domains map to shards
// (shard = domain mod P) so intra-domain chatter stays shard-local.
func (n *Net) ShardOf(addr string) int {
	return n.DomainOf(addr) % len(n.shards)
}

// ShardLoop returns the event loop that owns addr — the loop a node at
// that address must schedule all its work on.
func (n *Net) ShardLoop(addr string) *eventloop.Sim {
	return n.shards[n.ShardOf(addr)].loop
}

// nodeSeed derives addr's private rng stream from the master seed.
func nodeSeed(seed int64, addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return seed ^ int64(h.Sum64())
}

// Attach registers addr. Domain placement hashes the address, so a
// node's location and shard are stable across runs. Attach is
// coordinator-only (quiescent shards).
func (n *Net) Attach(addr string, deliver netif.DeliverFunc) (netif.Endpoint, error) {
	sh := n.shards[n.ShardOf(addr)]
	if existing, ok := sh.nodes[addr]; ok && !existing.dead {
		return nil, fmt.Errorf("simnet: %q already attached", addr)
	}
	nd := &node{
		addr:    addr,
		domain:  n.DomainOf(addr),
		shard:   n.ShardOf(addr),
		deliver: deliver,
		rng:     rand.New(rand.NewSource(nodeSeed(n.cfg.Seed, addr))),
	}
	sh.nodes[addr] = nd
	return &endpoint{net: n, node: nd}, nil
}

// lookup finds addr's record, whichever shard owns it.
func (n *Net) lookup(addr string) *node {
	return n.shards[n.ShardOf(addr)].nodes[addr]
}

// Kill marks addr dead: its in-flight and future datagrams vanish.
// Used by the churn generator. Coordinator-only.
func (n *Net) Kill(addr string) {
	if nd := n.lookup(addr); nd != nil {
		nd.dead = true
	}
}

// Partition cuts or heals bidirectional connectivity between a and b.
// Coordinator-only in sharded mode.
func (n *Net) Partition(a, b string, cut bool) {
	key := pairKey(a, b)
	if cut {
		n.cuts[key] = true
	} else {
		delete(n.cuts, key)
	}
}

// SetLossRate changes the uniform datagram loss probability at runtime;
// a scenario's loss burst raises it for a while and then lowers it.
// Coordinator-only in sharded mode. The
// change is deterministic across shard counts: loss draws come from
// per-node rng streams and are only consumed while the rate is positive,
// so every node sees the same draw sequence whatever the placement.
func (n *Net) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	n.cfg.LossRate = rate
}

// SetExtraLatency adds secs (clamped at 0) to every datagram's one-way
// delay — the latency-spike fault knob. Coordinator-only in sharded
// mode. Extra delay is always additive, so the conservative lookahead
// derived from the base topology stays sound.
func (n *Net) SetExtraLatency(secs float64) {
	if secs < 0 {
		secs = 0
	}
	n.extraLatency = secs
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Latency returns the one-way base propagation delay between two
// addresses — a pure function of the two domains, so a sender can
// compute it without touching the destination shard's records. Jitter
// and queuing draws are added per datagram at send time.
func (n *Net) Latency(a, b string) float64 {
	return n.cfg.baseLatency(n.DomainOf(a), n.DomainOf(b))
}

// ResetStats zeroes every node's counters — used between experiment
// warm-up and measurement phases. Coordinator-only in sharded mode.
func (n *Net) ResetStats() {
	for _, sh := range n.shards {
		for _, nd := range sh.nodes {
			nd.stats = Stats{}
		}
		sh.orphaned = 0
	}
}

// TotalStats sums counters across live and dead nodes. Coordinator-only
// in sharded mode.
func (n *Net) TotalStats() Stats {
	var s Stats
	for _, sh := range n.shards {
		for _, nd := range sh.nodes {
			s.BytesSent += nd.stats.BytesSent
			s.BytesReceived += nd.stats.BytesReceived
			s.PacketsSent += nd.stats.PacketsSent
			s.PacketsRecv += nd.stats.PacketsRecv
			s.PacketsLost += nd.stats.PacketsLost
		}
		s.PacketsLost += sh.orphaned
	}
	return s
}

// send models the datagram's journey; called by endpoints on the
// sender's own shard. Everything computed here —
// serialization queueing, latency, the loss draw — reads only
// sender-owned state, so sharded senders never reach across a shard
// boundary.
func (n *Net) send(src *node, to string, payload []byte) {
	if src.dead {
		return
	}
	size := int64(len(payload) + HeaderBytes)
	src.stats.BytesSent += size
	src.stats.PacketsSent++
	src.sendSeq++

	if n.cuts[pairKey(src.addr, to)] {
		src.stats.PacketsLost++
		return
	}
	if n.cfg.LossRate > 0 && src.rng.Float64() < n.cfg.LossRate {
		src.stats.PacketsLost++
		return
	}
	sh := n.shards[src.shard]
	now := sh.loop.Now()
	// Serialization against the sender's access link, with queueing.
	txTime := 0.0
	if n.cfg.StubBps > 0 {
		txTime = float64(size) / n.cfg.StubBps
	}
	start := now
	if src.linkFree > start {
		start = src.linkFree
	}
	src.linkFree = start + txTime
	base := n.Latency(src.addr, to)
	delay := base
	// WAN effects, all additive so the base-matrix lookahead stays
	// sound, all drawn from sender-owned state so shard counts agree.
	crossDomain := src.domain != n.DomainOf(to)
	if crossDomain && n.cfg.TransitBps > 0 {
		delay += float64(size) / n.cfg.TransitBps
	}
	if n.cfg.Jitter > 0 {
		delay += base * n.cfg.Jitter * src.rng.Float64()
	}
	if crossDomain && n.cfg.QueueMean > 0 {
		delay += n.cfg.QueueMean * src.rng.ExpFloat64()
	}
	arrive := src.linkFree + delay + n.extraLatency

	d := datagram{
		arrive: arrive, from: src.addr, seq: src.sendSeq,
		to: to, dstSh: n.ShardOf(to), size: size, payload: payload,
	}
	if !crossDomain || n.ss == nil {
		// The destination shares the sender's shard: deliver directly.
		n.schedule(d)
		return
	}
	// Stage in the sending shard's outbox; the barrier exchange merges
	// and schedules it. arrive >= the next barrier because the lookahead
	// never exceeds any cross-domain latency.
	sh.outbox = append(sh.outbox, d)
}

// Exchange implements eventloop.Exchanger: at each epoch barrier the
// coordinator drains every shard's outbox, merges the datagrams in
// canonical (arrival, sender, sender-sequence) order — an ordering
// computed entirely from sender-deterministic values, hence identical
// whatever the shard count — and schedules each on its destination
// shard.
func (n *Net) Exchange(now float64) {
	all := n.merge[:0]
	for _, sh := range n.shards {
		all = append(all, sh.outbox...)
		clear(sh.outbox)
		sh.outbox = sh.outbox[:0]
	}
	// (sender, sender-sequence) names one datagram, so the order is
	// total and the sort's algorithm cannot show in the result.
	slices.SortFunc(all, func(a, b datagram) int {
		if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
			return c
		}
		if c := strings.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range all {
		n.schedule(all[i])
	}
	clear(all) // the scheduled arrivals hold their own copies
	n.merge = all[:0]
}

// schedule queues d's delivery on its destination shard; the
// destination record is resolved when it lands.
func (n *Net) schedule(d datagram) {
	n.shards[d.dstSh].arrive(d.arrive, d.from, d.to, d.size, d.payload)
}

type endpoint struct {
	net  *Net
	node *node
}

func (e *endpoint) Send(to string, payload []byte) {
	// Copy the payload: senders may reuse buffers, and a real network
	// would serialize at this boundary.
	p := make([]byte, len(payload))
	copy(p, payload)
	e.net.send(e.node, to, p)
}

func (e *endpoint) LocalAddr() string { return e.node.addr }

func (e *endpoint) Close() { e.node.dead = true }
