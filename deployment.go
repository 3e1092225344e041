package p2

// The Deployment API: one runtime-agnostic surface over every execution
// environment P2 supports. A Deployment owns a set of nodes executing
// compiled OverLog plans; the same Spawn / AddFact / Install / Watch /
// Kill call sequence builds the same overlay whether the runtime is the
// sharded virtual-time simulator or real UDP sockets.
//
// # Ownership model
//
// Every node is pinned to exactly one event loop for its whole life: a
// shard of the simulation coordinator (Simulated) or its own wall-clock
// loop (UDP). The Handle returned by Spawn is the only way to reach a
// node, and every Handle method serializes onto that owning loop — on a
// UDP deployment by posting to the node's loop and waiting, on a
// simulated one by running in the driver goroutine while every shard is
// quiescent. The shard-ownership rule of the parallel simulator
// (internal/eventloop/sharded.go) thus becomes part of the API
// contract: the Handle is the only path to a node, each of its methods
// runs in a context that owns the node, and the one discipline left to
// the caller is the single-driver rule below (in particular, Watch
// callbacks must not reach into other handles).
//
// A simulated Deployment is single-driver: Deployment and Handle
// methods must be called from the goroutine that calls Run — between
// Run calls, or inside an At callback (the barrier control lane), both
// of which are moments when every shard is quiescent. Watch callbacks
// are the one exception: they fire on the owning shard's goroutine
// while the simulation runs, concurrently with other shards' callbacks,
// so cross-node aggregation inside a watcher needs its own lock. A UDP
// Deployment is thread-safe throughout.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/netif"
	"p2/internal/seed"
	"p2/internal/simnet"
	"p2/internal/trace"
	"p2/internal/udpnet"
)

// Runtime selects a Deployment's execution environment.
type Runtime int

const (
	// Simulated runs every node in virtual time over the simulated
	// network, partitioned across the shards of a parallel
	// conservative-lookahead simulator. Deterministic: the same seed
	// yields bit-identical runs at every shard count.
	Simulated Runtime = iota
	// UDP runs each node on its own wall-clock event loop over real
	// UDP sockets — the deployable form of the system.
	UDP
)

func (r Runtime) String() string {
	switch r {
	case Simulated:
		return "simulated"
	case UDP:
		return "udp"
	}
	return fmt.Sprintf("runtime(%d)", int(r))
}

// Deployment errors.
var (
	// ErrClosed is returned by operations on a closed Deployment.
	ErrClosed = errors.New("p2: deployment closed")
	// ErrNodeDown is returned by every Handle operation on a killed or
	// replaced node: methods that return errors wrap it (match with
	// errors.Is), methods that return data return zero values. A dead
	// handle never panics or hangs.
	ErrNodeDown = errors.New("p2: node down")
	// ErrKilled is the former name of ErrNodeDown, kept as an alias so
	// existing errors.Is(err, ErrKilled) checks keep matching.
	ErrKilled = ErrNodeDown
)

// NetTotals aggregates traffic counters across a simulated deployment's
// nodes (see Deployment.NetTotals).
type NetTotals = simnet.Stats

// Canceler cancels a scheduled control-lane action (see Deployment.At).
type Canceler interface{ Cancel() }

// ReplaceFunc provisions the successor of a churned-out node: it is
// called with the deployment and the dead node's address and returns
// the replacement's handle (nil lets the population shrink). It runs in
// driver context — at an epoch barrier on a simulated deployment, on
// the control loop of a UDP one — so it may call Spawn, AddFact, etc.
type ReplaceFunc func(d *Deployment, died string) *Handle

// config collects the functional options of NewDeployment.
type config struct {
	seed      int64
	shards    int
	topology  *NetConfig
	transport *TransportConfig
	nodeOpts  NodeOptions
	metrics   string // Prometheus listen address; "" disables
	faults    *netif.FaultConfig
	record    string // wire-trace file path; "" disables
}

// Option configures a Deployment.
type Option func(*config)

// WithSeed sets the master seed. Everything that shapes an individual
// node — engine randomness, simulated loss, churn session length —
// derives from (seed, address) alone, so outcomes are independent of
// event interleaving and identical at every shard count. Default 1.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithShards sets the parallel shard count of a Simulated deployment
// (default 1, which runs the sharded machinery on the calling
// goroutine — exactly the classic single-loop arrangement). Metrics are
// bit-identical at every count. Rejected for UDP deployments.
func WithShards(p int) Option { return func(c *config) { c.shards = p } }

// WithTopology sets the simulated network topology (default: the
// paper's Emulab-style transit-stub topology). Rejected for UDP
// deployments.
func WithTopology(cfg NetConfig) Option {
	return func(c *config) { c.topology = &cfg }
}

// WithTransport sets the default transport tuning for spawned nodes;
// SpawnOpts can still override it per node.
func WithTransport(tc TransportConfig) Option {
	return func(c *config) { c.transport = &tc }
}

// WithNodeDefaults sets the NodeOptions (sweep interval, introspection
// interval, jitter, tracing) Spawn applies to every node. SpawnOpts
// ignores these defaults and uses its explicit options instead — with
// two exceptions that are filled in either way: a zero Seed derives
// from (Seed, addr), and a nil Transport picks up WithTransport. No
// option chooses a node's plan: every node runs the plan Spawn is
// handed, planned when it was compiled.
func WithNodeDefaults(o NodeOptions) Option {
	return func(c *config) { c.nodeOpts = o }
}

// WithOptimizer does nothing: Compile plans every rule, so there is no
// optimizer to enable. It and OptimizerConfig are kept only because the
// benchmark rig still calls them; the next benchmark change drops those
// calls and both names go.
func WithOptimizer(OptimizerConfig) Option {
	return func(*config) {}
}

// WithMetrics serves Prometheus text metrics for every live node at
// http://addr/metrics (e.g. ":9090"; pass ":0" to pick a free port and
// read it back from MetricsAddr). Every node it serves refreshes its
// sys* tables (a zero NodeOptions.IntrospectInterval becomes 1 s), so
// its health conditions are judged. UDP deployments only — a simulated
// deployment runs in virtual time, where a wall-clock scraper has no
// consistent moment to observe; use HealthSnapshot there instead.
func WithMetrics(addr string) Option {
	return func(c *config) { c.metrics = addr }
}

// WithFaults arms the datagram-level fault injector on every node of a
// UDP deployment: seeded drop / duplicate / reorder / corrupt faults
// below the transport, plus a deployment-wide fault plane that makes
// Partition, SetLossRate, and SetExtraLatency work on real sockets. A
// zero FaultConfig injects nothing but still enables partitions. The
// config's zero Seed derives from WithSeed. UDP deployments only — a
// simulated deployment has these faults natively (topology loss,
// Partition, and the same runtime knobs).
func WithFaults(fc FaultConfig) Option {
	return func(c *config) { c.faults = &fc }
}

// WithRecord records every datagram the deployment's nodes send and
// receive — frame bytes, addresses, per-node timestamps — to a
// versioned trace file at path, for deterministic offline replay
// through the simulator (see the README's Fault lab section). The
// recording tap sits at the wire: what lands in the file is what
// crossed the network, after any injected faults. UDP deployments only.
func WithRecord(path string) Option {
	return func(c *config) { c.record = path }
}

// Deployment is a set of P2 nodes sharing one execution environment —
// the runtime-agnostic surface over the sharded virtual-time simulator
// and real UDP. Build one with NewDeployment, populate it with Spawn,
// drive it with Run (simulated time) or let it run (UDP wall time), and
// release it with Close.
type Deployment struct {
	rt  Runtime
	cfg config

	// Simulated runtime.
	coord *eventloop.ShardedSim
	net   *simnet.Net

	// UDP runtime: a wall-clock control loop for scheduled structural
	// actions (churn deaths, At callbacks); each node owns its own loop.
	ctl *eventloop.Real
	// Fault plane (UDP + WithFaults only): shared by every node's
	// endpoint wrapper.
	faults *netif.FaultPlane
	// Wire recorder (UDP + WithRecord only).
	recorder *trace.Writer
	// Prometheus endpoint (UDP + WithMetrics only).
	metricsLn  net.Listener
	metricsSrv *http.Server

	mu      sync.Mutex
	handles map[string]*Handle // live nodes only
	order   []string           // live nodes in spawn order
	closed  bool
	// incarn counts spawns per address across the deployment's whole
	// life (never cleared on Kill): each incarnation at an address gets
	// a strictly increasing transport epoch, so peers can tell a
	// replaced node's fresh sequence space from the dead one's.
	incarn map[string]uint32

	churning     bool
	churnMean    float64
	churnRepl    ReplaceFunc
	churnCancels map[string]Canceler // per live churned address; entries drop as deaths fire

	// Key-value service client (kv.go), created lazily by KV().
	kvClient *KVClient
}

// NewDeployment creates an empty deployment on the given runtime.
func NewDeployment(rt Runtime, opts ...Option) (*Deployment, error) {
	cfg := config{seed: 1, shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	d := &Deployment{rt: rt, cfg: cfg, handles: make(map[string]*Handle), incarn: make(map[string]uint32)}
	switch rt {
	case Simulated:
		if cfg.metrics != "" {
			return nil, fmt.Errorf("p2: WithMetrics applies to UDP deployments only (use HealthSnapshot on a simulated one)")
		}
		if cfg.faults != nil {
			return nil, fmt.Errorf("p2: WithFaults applies to UDP deployments only (a simulated topology has native loss, partitions, and latency knobs)")
		}
		if cfg.record != "" {
			return nil, fmt.Errorf("p2: WithRecord applies to UDP deployments only (a simulated run is already reproducible from its seed)")
		}
		nc := simnet.DefaultConfig()
		if cfg.topology != nil {
			nc = *cfg.topology
		}
		nc.Seed = cfg.seed
		la := nc.Lookahead()
		if la <= 0 {
			return nil, fmt.Errorf("p2: topology has a non-positive cross-domain latency; cannot derive a conservative lookahead")
		}
		d.coord = eventloop.NewShardedSim(cfg.shards, la)
		d.net = simnet.NewSharded(d.coord, nc)
	case UDP:
		if cfg.shards != 1 {
			return nil, fmt.Errorf("p2: WithShards applies to Simulated deployments only")
		}
		if cfg.topology != nil {
			return nil, fmt.Errorf("p2: WithTopology applies to Simulated deployments only")
		}
		d.ctl = eventloop.NewReal()
		go d.ctl.Run()
		if cfg.faults != nil {
			fc := *cfg.faults
			if fc.Seed == 0 {
				fc.Seed = cfg.seed
			}
			d.faults = netif.NewFaultPlane(fc)
		}
		if cfg.record != "" {
			w, err := trace.Create(cfg.record)
			if err != nil {
				d.ctl.Stop()
				return nil, fmt.Errorf("p2: WithRecord: %w", err)
			}
			d.recorder = w
		}
		if cfg.metrics != "" {
			if err := d.startMetrics(cfg.metrics); err != nil {
				d.ctl.Stop()
				if d.recorder != nil {
					d.recorder.Close()
				}
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("p2: unknown runtime %v", rt)
	}
	return d, nil
}

// Runtime returns the deployment's execution environment.
func (d *Deployment) Runtime() Runtime { return d.rt }

// Shards returns the parallel shard count (always 1 for UDP).
func (d *Deployment) Shards() int {
	if d.coord != nil {
		return d.coord.Shards()
	}
	return 1
}

// Now returns the deployment clock in seconds: virtual time on a
// simulated deployment, wall-clock seconds since creation on UDP.
func (d *Deployment) Now() float64 {
	if d.coord != nil {
		return d.coord.Now()
	}
	return d.ctl.Now()
}

// Run advances a simulated deployment by the given seconds of virtual
// time and returns the number of events fired. On a UDP deployment the
// nodes run continuously on their own loops; Run simply blocks for that
// much wall time and returns 0.
func (d *Deployment) Run(seconds float64) int {
	if d.coord != nil {
		return d.coord.RunFor(seconds)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	return 0
}

// At schedules fn on the deployment's structural control lane at
// deployment time t (clamped to now if past): the epoch-barrier lane of
// a simulated deployment — the epoch in progress ends at t, and fn runs
// on the driver goroutine at exactly t, after every node event due at
// or before t, while every shard is quiescent — or the control loop of
// a UDP one. This is the lane for driver-level actions that touch
// deployment-wide state: staggered Spawns, scheduled Kills, partitions.
// Callbacks may call any Deployment or Handle method.
func (d *Deployment) At(t float64, fn func()) Canceler {
	if d.coord != nil {
		return d.coord.AtBarrier(t, fn)
	}
	return d.ctl.At(t, fn)
}

// Spawn creates and starts a node at addr executing plan, with the
// deployment's default node options. The node's engine seed derives
// from (Seed, addr); on a simulated deployment the node is pinned to
// shard = domain(addr) mod Shards, on UDP it gets its own loop and
// socket (addr is the "host:port" to bind).
func (d *Deployment) Spawn(addr string, plan *Plan) (*Handle, error) {
	return d.SpawnOpts(addr, plan, d.cfg.nodeOpts)
}

// SpawnOpts is Spawn with explicit node options. A zero opts.Seed is
// replaced by the deterministic (Seed, addr) derivation; a nil
// opts.Transport picks up WithTransport.
func (d *Deployment) SpawnOpts(addr string, plan *Plan, opts NodeOptions) (*Handle, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	if d.handles[addr] != nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("p2: spawn %s: already deployed", addr)
	}
	d.mu.Unlock()

	if opts.Seed == 0 {
		opts.Seed = seed.For(d.cfg.seed, "node", addr)
	}
	if opts.Transport == nil && d.cfg.transport != nil {
		tc := *d.cfg.transport
		opts.Transport = &tc
	}
	// Stamp this incarnation's transport epoch: strictly increasing per
	// address over the deployment's life, so a replaced node's restarted
	// sequence space is never confused with its predecessor's (the
	// counter survives Kill). Spawn order is driver-determined, so the
	// epochs — and the bytes they put on the wire — are identical at
	// every shard count.
	d.mu.Lock()
	d.incarn[addr]++
	epoch := d.incarn[addr]
	d.mu.Unlock()
	tc := DefaultTransportConfig()
	if opts.Transport != nil {
		tc = *opts.Transport
	}
	tc.Epoch = epoch
	opts.Transport = &tc
	if d.metricsLn != nil && opts.IntrospectInterval == 0 {
		opts.IntrospectInterval = 1 // the conditions /metrics serves need an audience
	}

	h := &Handle{d: d, addr: addr}
	if d.coord != nil {
		h.node = engine.NewNode(addr, d.net.ShardLoop(addr), d.net, plan, opts)
		if err := h.node.Start(); err != nil {
			return nil, fmt.Errorf("p2: spawn %s: %w", addr, err)
		}
	} else {
		loop := eventloop.NewReal()
		h.loop = loop
		var nif netif.Network = udpnet.New(loop)
		if d.recorder != nil {
			// The recording tap sits at the wire, inside the fault
			// injector: what it records is what actually crossed the
			// network.
			nif = trace.WrapNetwork(nif, d.recorder, loop.Now)
		}
		if d.faults != nil {
			nif = netif.WithFaults(nif, d.faults, loop.AfterFree)
		}
		h.node = engine.NewNode(addr, loop, nif, plan, opts)
		errc := make(chan error, 1)
		loop.Post(func() { errc <- h.node.Start() })
		go loop.Run()
		if err := <-errc; err != nil {
			loop.Stop()
			return nil, fmt.Errorf("p2: spawn %s: %w", addr, err)
		}
	}
	d.mu.Lock()
	// Re-check under the lock: on a UDP deployment Close may have raced
	// in since the entry check, and registering now would leak a
	// running node (and its bound socket) into a closed deployment.
	if d.closed || d.handles[addr] != nil {
		closed := d.closed
		d.mu.Unlock()
		h.Kill()
		if closed {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("p2: spawn %s: already deployed", addr)
	}
	d.handles[addr] = h
	d.order = append(d.order, addr)
	d.mu.Unlock()
	return h, nil
}

// Node returns the live node at addr, or nil.
func (d *Deployment) Node(addr string) *Handle {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.handles[addr]
}

// Nodes returns the live nodes in spawn order. Killed nodes do not
// appear: the deployment tracks only live handles.
func (d *Deployment) Nodes() []*Handle {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Handle, 0, len(d.order))
	for _, addr := range d.order {
		out = append(out, d.handles[addr])
	}
	return out
}

// Addrs returns the live node addresses in spawn order.
func (d *Deployment) Addrs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// untrack removes a killed node from the live set — by handle
// identity, so killing a handle that lost a spawn race (or was already
// replaced at its address) never evicts the live occupant.
func (d *Deployment) untrack(h *Handle) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.handles[h.addr] != h {
		return
	}
	delete(d.handles, h.addr)
	for i, a := range d.order {
		if a == h.addr {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Kill crash-stops the live node at addr (no-op if unknown): its
// timers stop, its transport closes, in-flight datagrams to it vanish,
// and the deployment forgets it. Structural action — driver context on
// a simulated deployment.
func (d *Deployment) Kill(addr string) {
	if h := d.Node(addr); h != nil {
		h.Kill()
	}
}

// Replace restarts the node at addr: the running instance is killed and
// a fresh node spawned at the same address, executing plan (nil reuses
// the dead node's plan). State is not carried over — the replacement
// rejoins the overlay the way any new node would.
func (d *Deployment) Replace(addr string, plan *Plan) (*Handle, error) {
	h := d.Node(addr)
	if h == nil {
		return nil, fmt.Errorf("p2: replace %s: no such live node", addr)
	}
	if plan == nil {
		plan = h.node.Plan()
	}
	h.Kill()
	return d.Spawn(addr, plan)
}

// EnableChurn starts Bamboo-style churn: every currently-live node
// except those in exempt draws an exponentially distributed session
// length with the given mean (from its private (Seed, addr) stream, so
// the schedule is identical at every shard count), then dies through
// the structural control lane. replace, if non-nil, provisions each
// dead node's successor; returned replacements are churned in turn.
// Nodes spawned after EnableChurn (other than via replace) are not
// churned.
func (d *Deployment) EnableChurn(meanSession float64, replace ReplaceFunc, exempt ...string) {
	ex := make(map[string]bool, len(exempt))
	for _, a := range exempt {
		ex[a] = true
	}
	d.mu.Lock()
	d.churning = true
	d.churnMean = meanSession
	d.churnRepl = replace
	if d.churnCancels == nil {
		d.churnCancels = make(map[string]Canceler)
	}
	live := make([]string, len(d.order))
	copy(live, d.order)
	d.mu.Unlock()
	for _, addr := range live {
		if !ex[addr] {
			d.scheduleDeath(addr)
		}
	}
}

// DisableChurn cancels every scheduled churn death.
func (d *Deployment) DisableChurn() {
	d.mu.Lock()
	d.churning = false
	cancels := d.churnCancels
	d.churnCancels = nil
	d.mu.Unlock()
	for _, c := range cancels {
		c.Cancel()
	}
}

// forgetDeath drops addr's fired churn entry so the cancel set stays
// bounded by the live churned population.
func (d *Deployment) forgetDeath(addr string) {
	d.mu.Lock()
	delete(d.churnCancels, addr)
	d.mu.Unlock()
}

// scheduleDeath arms addr's churn timer from its private session
// stream.
func (d *Deployment) scheduleDeath(addr string) {
	d.mu.Lock()
	if !d.churning {
		d.mu.Unlock()
		return
	}
	mean := d.churnMean
	d.mu.Unlock()
	rng := rand.New(rand.NewSource(seed.For(d.cfg.seed, "session", addr)))
	session := rng.ExpFloat64() * mean
	c := d.At(d.Now()+session, func() { d.die(addr) })
	d.mu.Lock()
	if d.churning {
		d.churnCancels[addr] = c
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	c.Cancel()
}

// die executes one churn death and provisions the replacement.
func (d *Deployment) die(addr string) {
	d.forgetDeath(addr)
	d.mu.Lock()
	alive, repl := d.churning, d.churnRepl
	d.mu.Unlock()
	if !alive {
		return
	}
	d.Kill(addr)
	if repl != nil {
		if h := repl(d, addr); h != nil {
			d.scheduleDeath(h.Addr())
		}
	}
}

// NetTotals sums traffic counters across all nodes, live and dead, of a
// simulated deployment (zero for UDP, where no global accounting
// exists — per-peer counters are available from Handle.NetStats).
func (d *Deployment) NetTotals() NetTotals {
	if d.net == nil {
		return NetTotals{}
	}
	return d.net.TotalStats()
}

// ResetNetStats zeroes the simulated network's per-node counters —
// used between an experiment's warm-up and measurement phases. No-op on
// UDP.
func (d *Deployment) ResetNetStats() {
	if d.net != nil {
		d.net.ResetStats()
	}
}

// Partition cuts or heals bidirectional connectivity between two
// nodes. Structural action — driver context on a simulated deployment.
// On UDP the cut is enforced by the WithFaults datagram layer; without
// it the real network is not ours to cut and an error is returned.
func (d *Deployment) Partition(a, b string, cut bool) error {
	if d.net != nil {
		d.net.Partition(a, b, cut)
		return nil
	}
	if d.faults != nil {
		d.faults.Partition(a, b, cut)
		return nil
	}
	return fmt.Errorf("p2: partition on a UDP deployment requires WithFaults")
}

// SetLossRate changes the per-datagram loss probability at runtime,
// uniform across the deployment; a scenario's loss burst raises it for
// a while and then lowers it. Structural
// action — driver context on a simulated deployment (where the change
// stays bit-identical across shard counts); enforced by the WithFaults
// layer on UDP.
func (d *Deployment) SetLossRate(rate float64) error {
	if d.net != nil {
		d.net.SetLossRate(rate)
		return nil
	}
	if d.faults != nil {
		d.faults.SetDropRate(rate)
		return nil
	}
	return fmt.Errorf("p2: loss injection on a UDP deployment requires WithFaults")
}

// SetExtraLatency delays every datagram by secs on top of the base
// network — the latency-spike fault knob. Structural action — driver
// context on a simulated deployment; enforced by the WithFaults layer
// on UDP.
func (d *Deployment) SetExtraLatency(secs float64) error {
	if d.net != nil {
		d.net.SetExtraLatency(secs)
		return nil
	}
	if d.faults != nil {
		d.faults.SetExtraLatency(secs)
		return nil
	}
	return fmt.Errorf("p2: latency injection on a UDP deployment requires WithFaults")
}

// FaultStats returns the WithFaults injector's counters (zero without
// it — including on simulated deployments, whose native faults are
// accounted in NetTotals).
func (d *Deployment) FaultStats() FaultStats {
	if d.faults == nil {
		return FaultStats{}
	}
	return d.faults.Stats()
}

// ShardOf returns the shard that owns addr — a pure function of
// (address, topology, shard count), stable across runs and known before
// the node spawns. Always 0 on UDP.
func (d *Deployment) ShardOf(addr string) int {
	if d.net == nil {
		return 0
	}
	return d.net.ShardOf(addr)
}

// DomainOf returns addr's stub domain in the simulated topology
// (0 on UDP).
func (d *Deployment) DomainOf(addr string) int {
	if d.net == nil {
		return 0
	}
	return d.net.DomainOf(addr)
}

// Close releases the deployment: churn stops, UDP nodes and their loops
// shut down, simulator worker goroutines exit. Idempotent. The
// deployment must not be run afterwards.
func (d *Deployment) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.DisableChurn()
	if d.metricsSrv != nil {
		d.metricsSrv.Close()
	}
	if d.coord != nil {
		d.coord.Close()
		return
	}
	for _, h := range d.Nodes() {
		h.Kill()
	}
	d.ctl.Stop()
	if d.recorder != nil {
		d.recorder.Close()
	}
}

// Handle is the application's grip on one deployed node. All methods
// serialize onto the node's owning loop (see the package notes on the
// ownership model): on UDP they post to the node's loop and wait; on a
// simulated deployment they run directly in the driver goroutine, which
// owns every shard between Run calls and at barriers.
type Handle struct {
	d      *Deployment
	addr   string
	node   *engine.Node
	loop   *eventloop.Real // owning loop (UDP; nil when simulated)
	killed atomic.Bool
}

// Addr returns the node's network address (its identity).
func (h *Handle) Addr() string { return h.addr }

// Runtime returns the owning deployment's runtime.
func (h *Handle) Runtime() Runtime { return h.d.rt }

// Running reports whether the node is live (not killed).
func (h *Handle) Running() bool { return !h.killed.Load() }

// Do runs fn on the node's owning loop with the underlying engine node
// and returns once it has completed — the escape hatch for operations
// the Handle does not wrap (transport taps, direct table access).
// Everything fn touches follows the owning loop's single-threaded
// discipline. On a simulated deployment fn runs immediately in the
// driver goroutine; do not retain the *Node beyond fn. Do must not be
// called from code already running on the node's loop (a Watch
// callback, an installed rule's side effect): on UDP that would wait
// on the loop it is running on.
func (h *Handle) Do(fn func(n *Node)) error {
	if h.killed.Load() {
		return fmt.Errorf("%w: %s", ErrKilled, h.addr)
	}
	if h.loop == nil {
		fn(h.node)
		return nil
	}
	done := make(chan struct{})
	if err := h.loop.Post(func() { fn(h.node); close(done) }); err != nil {
		return fmt.Errorf("p2: %s: %w", h.addr, ErrKilled)
	}
	select {
	case <-done:
		return nil
	case <-h.loop.Stopped():
		// The loop stopped while our callback was queued. It may still
		// have squeezed into the final batch — prefer reporting success
		// if it did.
		select {
		case <-done:
			return nil
		default:
			return fmt.Errorf("p2: %s: %w", h.addr, ErrKilled)
		}
	}
}

// AddFact injects a tuple as if declared as a fact — the way
// applications hand a node its landmark, bootstrap neighbors, and
// configuration rows.
func (h *Handle) AddFact(name string, fields ...Value) error {
	return h.Do(func(n *Node) { n.AddFact(name, fields...) })
}

// Inject delivers t to the node as a local event or table row — the
// API for issuing lookups, publishes, and probes.
func (h *Handle) Inject(t *Tuple) error {
	return h.Do(func(n *Node) { n.InjectTuple(t) })
}

// Install compiles self-contained OverLog source and grafts it into
// the node's running dataflow; new rules see future events, periodics
// begin ticking, and installed tables join the sweep. Installed rules
// may join any relation the node maintains, including the sys* system
// tables. On error nothing is installed.
func (h *Handle) Install(src string) error {
	var ierr error
	if err := h.Do(func(n *Node) { ierr = n.Install(src) }); err != nil {
		return err
	}
	return ierr
}

// Watch registers fn for every event concerning the named relation.
// Callbacks fire on the node's owning loop, so they must not call
// Handle methods: on a simulated deployment that loop is the owning
// shard's goroutine during Run — concurrent with other shards'
// watchers, so cross-node aggregation must take its own lock — and on
// UDP a callback that re-enters its own handle would wait on the very
// loop it is running on. A watcher that needs node state should be
// registered inside Do and use the *Node it is handed.
func (h *Handle) Watch(name string, fn WatchFunc) error {
	return h.Do(func(n *Node) { n.Watch(name, fn) })
}

// Scan returns the rows of the named table (nil if the node has no
// such table). The returned tuples are immutable and safe to read
// after Scan returns.
func (h *Handle) Scan(table string) []*Tuple {
	var rows []*Tuple
	h.Do(func(n *Node) {
		if tb := n.Table(table); tb != nil {
			rows = tb.Scan()
		}
	})
	return rows
}

// ScanSorted is Scan in deterministic (rendered) order.
func (h *Handle) ScanSorted(table string) []*Tuple {
	var rows []*Tuple
	h.Do(func(n *Node) {
		if tb := n.Table(table); tb != nil {
			rows = tb.ScanSorted()
		}
	})
	return rows
}

// TableLen returns the named table's row count (0 if absent).
func (h *Handle) TableLen(table string) int {
	n := 0
	h.Do(func(nd *Node) {
		if tb := nd.Table(table); tb != nil {
			n = tb.Len()
		}
	})
	return n
}

// TableStats snapshots the node's per-table counters (the sysTable
// relation's Go form).
func (h *Handle) TableStats() []TableStat {
	var out []TableStat
	h.Do(func(n *Node) { out = n.TableStats() })
	return out
}

// RuleStats snapshots per-rule fire counts (sysRule).
func (h *Handle) RuleStats() []RuleStat {
	var out []RuleStat
	h.Do(func(n *Node) { out = n.RuleStats() })
	return out
}

// PlanStats snapshots the planner's plan per rule (sysPlan). A frozen
// rule reports its textual plan: order "-", cost 0.
func (h *Handle) PlanStats() []PlanStat {
	var out []PlanStat
	h.Do(func(n *Node) { out = n.PlanStats() })
	return out
}

// NetStats snapshots per-peer transport counters and control state
// (sysNet).
func (h *Handle) NetStats() []NetStat {
	var out []NetStat
	h.Do(func(n *Node) { out = n.NetStats() })
	return out
}

// NodeStat snapshots the node-level gauges (sysNode).
func (h *Handle) NodeStat() NodeStat {
	var out NodeStat
	h.Do(func(n *Node) { out = n.NodeStat() })
	return out
}

// Kill crash-stops the node: timers stop, the transport closes, the
// socket (UDP) or network record (Simulated) dies, and the deployment
// forgets the handle. Idempotent. Subsequent Handle calls return
// ErrKilled-wrapped errors or zero values.
func (h *Handle) Kill() {
	if h.killed.Swap(true) {
		return
	}
	if h.loop == nil {
		h.node.Stop()
		h.d.net.Kill(h.addr)
	} else {
		loop := h.loop
		if err := loop.Post(func() { h.node.Stop(); loop.Stop() }); err == nil {
			<-loop.Stopped() // node fully stopped; socket closed
		} else {
			loop.Stop()
		}
	}
	h.d.untrack(h)
}
