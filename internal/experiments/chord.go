package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"

	"p2"
	"p2/internal/chordref"
	"p2/internal/id"
	"p2/internal/overlays"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// envShards is the environment variable CI uses to run the whole
// simulation suite at a chosen shard count: any NewChord whose
// ChordOpts leave Shards at zero picks up its value.
const envShards = "P2_SIM_SHARDS"

// ChordOpts configures a Chord network build.
type ChordOpts struct {
	N           int     // initial population
	Seed        int64   // master seed
	JoinSpacing float64 // seconds between node starts (default 0.5)
	// JoinRamp staggers joins at a rate proportional to the current
	// population — 4% of the ring per virtual second, at most 20%
	// growth per stabilization round — instead of the fixed spacing,
	// with JoinSpacing as the per-join floor (the peak-rate cap). A
	// fixed spacing fast enough to build a 10k ring in reasonable
	// virtual time floods the first few dozen nodes with joins faster
	// than stabilization can integrate them, fragmenting the ring into
	// islands that only the landmark's 60s anti-entropy slowly merges;
	// ramping keeps every prefix of the build converged. Use
	// JoinDeadline for the time of the last scheduled join.
	JoinRamp bool
	Defines  map[string]val.Value
	Net      *simnet.Config // nil = paper topology
	// Transport overrides the deployment's transport tuning (nil =
	// defaults). Scale experiments use it to vary FlowIdleTTL and the
	// reliability knobs without re-plumbing every option.
	Transport *p2.TransportConfig
	// Shards selects the parallel shard count: >= 1 is explicit, 0
	// defers to the P2_SIM_SHARDS environment variable (absent: 1).
	Shards int
	// KV layers the replicated key-value service (internal/kvs) onto
	// every node's plan, so RunKV can issue PUT/GET ops through the
	// deployment's KV client.
	KV bool
}

func resolveShards(v int) int {
	if v >= 1 {
		return v
	}
	if v == 0 {
		if s := os.Getenv(envShards); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 1 {
				return n
			}
		}
	}
	return 1
}

// LookupResult records one issued lookup's fate.
type LookupResult struct {
	EventID   string
	Key       id.ID
	From      string
	Issued    float64
	Completed float64 // 0 if never
	Owner     string  // responding node's address
	Hops      int
	Done      bool
}

// Latency returns completion latency in seconds (or -1 if unfinished).
func (lr *LookupResult) Latency() float64 {
	if !lr.Done {
		return -1
	}
	return lr.Completed - lr.Issued
}

// Chord is a running Chord deployment under measurement: a thin
// Chord-metrics layer over a simulated p2.Deployment. Node placement,
// spawn/kill/replace routing through the barrier control lane, churn
// scheduling, per-address seed derivation and the clock belong to the
// Deployment, which callers drive through D; Chord adds only the
// Chord-specific parts — landmark bootstrap facts, lookup issuance and
// watch taps, traffic classification, and ring ground truth.
type Chord struct {
	// D is the underlying simulated deployment: Run, Now, Addrs, Node,
	// Kill, Close and the structural operations (Partition,
	// DomainOf, ...) are called on it directly.
	D    *p2.Deployment
	Plan *p2.Plan

	rng       *rand.Rand
	landmark  string
	nextID    int
	lookupSeq int

	pending map[string]*LookupResult
	Results []*LookupResult

	// tapMu guards measurement state mutated from watch and transport
	// taps, which fire concurrently on shard loops. All guarded updates
	// commute (counter increments), so the lock order never shows in
	// the metrics.
	tapMu       sync.Mutex
	lookupBytes int64
	maintBytes  int64

	joinDeadline float64
}

// NewChord builds (but does not yet run) a Chord network: nodes start
// staggered on the virtual clock — through the deployment's barrier
// control lane — and join through the first node.
func NewChord(opts ChordOpts) *Chord {
	if opts.JoinSpacing <= 0 {
		opts.JoinSpacing = 0.5
	}
	dopts := []p2.Option{
		p2.WithSeed(opts.Seed),
		p2.WithShards(resolveShards(opts.Shards)),
	}
	if opts.Net != nil {
		dopts = append(dopts, p2.WithTopology(*opts.Net))
	}
	if opts.Transport != nil {
		dopts = append(dopts, p2.WithTransport(*opts.Transport))
	}
	d, err := p2.NewDeployment(p2.Simulated, dopts...)
	if err != nil {
		panic(fmt.Sprintf("experiments: deployment: %v", err))
	}
	plan := overlays.ChordPlan
	if opts.KV {
		plan = overlays.ChordKVPlan
	}
	h := &Chord{
		D:       d,
		Plan:    plan(opts.Defines),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pending: make(map[string]*LookupResult),
	}
	at := 0.0
	for i := 0; i < opts.N; i++ {
		addr := h.nextAddr()
		if !opts.JoinRamp {
			// Exact multiplication, not accumulation: the fixed-spacing
			// schedule predates the ramp and every recorded baseline
			// depends on its event times staying bit-identical.
			at = float64(i) * opts.JoinSpacing
		}
		d.At(at, func() { h.spawn(addr) })
		h.joinDeadline = at
		if opts.JoinRamp {
			// 4%/s of the population joined so far, floored at the
			// spacing cap.
			if gap := 25.0 / float64(i+1); gap > opts.JoinSpacing {
				at += gap
			} else {
				at += opts.JoinSpacing
			}
		}
	}
	return h
}

// JoinDeadline is the virtual time of the last scheduled initial join —
// the earliest moment the full population exists. Settle windows in
// scale tests are measured from here.
func (h *Chord) JoinDeadline() float64 { return h.joinDeadline }

// nextAddr mints the next node address. Driver only, so address
// assignment — and everything derived from it: domain, shard, per-node
// random streams — is deterministic.
func (h *Chord) nextAddr() string {
	addr := fmt.Sprintf("n%d:p2", h.nextID)
	h.nextID++
	return addr
}

// spawn creates and starts a node at addr; the first becomes the
// landmark, everyone else joins through it. Runs in driver context:
// between Run calls or at a barrier (initial stagger, churn
// replacement).
func (h *Chord) spawn(addr string) *p2.Handle {
	n, err := h.D.Spawn(addr, h.Plan)
	if err != nil {
		panic(fmt.Sprintf("experiments: spawn %s: %v", addr, err))
	}

	if h.landmark == "" {
		h.landmark = addr
		n.AddFact("landmark", val.Str(addr), val.Str("-"))
	} else {
		n.AddFact("landmark", val.Str(addr), val.Str(h.landmark))
	}
	n.AddFact("join", val.Str(addr), val.Str(addr+"!boot"))

	// Measurement taps. These run on the node's own loop — concurrently
	// with other shards' taps — so shared tallies go through tapMu and
	// everything else stays per-lookup state touched only by the
	// requester's shard.
	n.Watch("lookup", func(ev p2.WatchEvent) {
		if ev.Dir != p2.DirSent {
			return
		}
		eid := ev.Tuple.Field(3).AsStr()
		if lr, ok := h.pending[eid]; ok {
			h.tapMu.Lock()
			lr.Hops++
			h.tapMu.Unlock()
		}
	})
	n.Watch("lookupResults", func(ev p2.WatchEvent) {
		if ev.Dir != p2.DirReceived && ev.Dir != p2.DirDerived {
			return
		}
		// lookupResults(R, K, S, SI, E): only the requester counts it,
		// and only once.
		if ev.Node != ev.Tuple.Field(0).AsStr() {
			return
		}
		eid := ev.Tuple.Field(4).AsStr()
		lr, ok := h.pending[eid]
		if !ok || lr.Done {
			return
		}
		lr.Done = true
		lr.Completed = ev.Time
		lr.Owner = ev.Tuple.Field(3).AsStr()
	})
	n.Do(func(nd *p2.Node) {
		nd.Transport().OnSent(func(to string, t *tuple.Tuple, wire int, rexmit bool) {
			// Classify data bytes by tuple; TrafficBytes scales the
			// classes to the simulator's wire total so acks and datagram
			// headers (shared across a batch, often piggybacked) are
			// apportioned instead of guessed at.
			h.tapMu.Lock()
			switch t.Name() {
			case "lookup", "lookupResults":
				h.lookupBytes += int64(wire)
			default:
				h.maintBytes += int64(wire)
			}
			h.tapMu.Unlock()
		})
	})
	return n
}

// Lookup issues one lookup for key from the given node and returns its
// result record (filled in as the simulation progresses).
func (h *Chord) Lookup(from string, key id.ID) *LookupResult {
	h.lookupSeq++
	eid := fmt.Sprintf("lk!%d", h.lookupSeq)
	lr := &LookupResult{
		EventID: eid,
		Key:     key,
		From:    from,
		Issued:  h.D.Now(),
	}
	h.pending[eid] = lr
	h.Results = append(h.Results, lr)
	h.D.Node(from).Inject(tuple.New("lookup",
		val.Str(from), val.MakeID(key), val.Str(from), val.Str(eid)))
	return lr
}

// RandomLiveAddr picks a uniformly random live node.
func (h *Chord) RandomLiveAddr() string {
	live := h.D.Addrs()
	return live[h.rng.Intn(len(live))]
}

// RandomKey draws a uniform identifier.
func (h *Chord) RandomKey() id.ID { return id.Random(h.rng) }

// IdealOwner computes the ground-truth successor of key among live
// nodes — the node every consistent lookup should return. It delegates
// to chordref.Owner, the shared oracle, so these experiments and the
// fault lab's differential checks can never drift apart.
func (h *Chord) IdealOwner(key id.ID) string {
	return chordref.Owner(key, h.D.Addrs())
}

// RingCorrectness returns the fraction of live nodes whose bestSucc is
// the true next live node on the identifier ring — the convergence
// metric for static experiments.
func (h *Chord) RingCorrectness() float64 {
	live := h.D.Addrs()
	if len(live) == 0 {
		return 0
	}
	type entry struct {
		nid  id.ID
		addr string
	}
	ring := make([]entry, 0, len(live))
	for _, a := range live {
		ring = append(ring, entry{id.Hash(a), a})
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].nid.Less(ring[j].nid) })
	ideal := make(map[string]string, len(ring))
	for i, e := range ring {
		ideal[e.addr] = ring[(i+1)%len(ring)].addr
	}
	good := 0
	for _, a := range live {
		rows := h.D.Node(a).Scan("bestSucc")
		if len(rows) == 1 && rows[0].Field(2).AsStr() == ideal[a] {
			good++
		}
	}
	return float64(good) / float64(len(live))
}

// TrafficBytes returns cumulative (lookupClass, maintenanceClass) bytes
// across all nodes since the last ResetTraffic. The per-class data
// bytes the transport tap classified are scaled up to the simulator's
// true wire total, so ack datagrams, UDP/IP headers, and per-frame
// batching overhead are distributed proportionally between the classes.
func (h *Chord) TrafficBytes() (lookup, maintenance int64) {
	classified := h.lookupBytes + h.maintBytes
	total := h.D.NetTotals().BytesSent
	if classified == 0 || total <= classified {
		return h.lookupBytes, h.maintBytes
	}
	scale := float64(total) / float64(classified)
	return int64(float64(h.lookupBytes) * scale), int64(float64(h.maintBytes) * scale)
}

// ResetTraffic zeroes the traffic classification counters and the
// simulator's raw counters.
func (h *Chord) ResetTraffic() {
	h.lookupBytes, h.maintBytes = 0, 0
	h.D.ResetNetStats()
}

// StartChurn begins Bamboo-style churn: every node except the landmark
// lives for an exponentially distributed session with the given mean,
// then dies and is immediately replaced by a fresh node joining through
// the landmark, keeping the population constant. Scheduling, session
// derivation, and the kill itself belong to the deployment; Chord only
// provisions each replacement. D.DisableChurn stops it.
func (h *Chord) StartChurn(meanSession float64) {
	h.D.EnableChurn(meanSession, func(d *p2.Deployment, died string) *p2.Handle {
		return h.spawn(h.nextAddr())
	}, h.landmark)
}

// ConsistencyProbe issues the same key lookup from sample random live
// nodes at once and reports, after waiting timeout seconds, the
// fraction that agreed on the most popular owner — the consistency
// metric of Figure 4(ii), following Bamboo's methodology. The fraction
// is over all issued lookups, so unanswered lookups count against
// consistency.
func (h *Chord) ConsistencyProbe(sample int, timeout float64) float64 {
	key := h.RandomKey()
	var results []*LookupResult
	seen := make(map[string]bool)
	live := h.D.Addrs()
	if sample > len(live) {
		sample = len(live)
	}
	for len(results) < sample {
		from := live[h.rng.Intn(len(live))]
		if seen[from] {
			continue
		}
		seen[from] = true
		results = append(results, h.Lookup(from, key))
	}
	h.D.Run(timeout)
	counts := make(map[string]int)
	for _, lr := range results {
		if lr.Done {
			counts[lr.Owner]++
		}
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(sample)
}
