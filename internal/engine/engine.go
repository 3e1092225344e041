// Package engine implements the P2 node runtime: it runs a compiled
// Plan on one node — tables, rule strands, periodic timers, continuous
// table aggregates, and the network stack — on a run-to-completion
// event loop. The rule strands' elements are the plan's, shared by
// every node running it; a node holds only its state for them. A node
// takes its plan on in one idempotent pass, catchUp, at Start and again
// at each Install, whose extended plan it catches up to the same way.
//
// This is the component Figure 1 of the paper calls the "runtime plan
// executor". A Node is wired to a netif.Network (simulated or real UDP)
// through the reliable transport; derived tuples whose location
// specifier names another node are sent there, everything else loops
// back locally exactly as in Figure 2's dataflow.
package engine

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"p2/internal/dataflow"
	"p2/internal/eventloop"
	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/netif"
	"p2/internal/pel"
	"p2/internal/planner"
	"p2/internal/table"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/val"
)

// Options configures a Node.
type Options struct {
	// Seed drives the node's deterministic randomness (f_rand,
	// f_coinFlip, periodic jitter).
	Seed int64
	// Transport tunes reliability and congestion control; zero value
	// uses transport.DefaultConfig.
	Transport *transport.Config
	// NoJitter disables the random stagger of first periodic firings.
	// Only the engine's tests set it, to run timers in lock step.
	NoJitter bool
	// IntrospectInterval is how often the sys* system tables are
	// refreshed from runtime counters. Zero (the default) means 1 s,
	// demand-driven: the periodic snapshot runs only when something
	// actually consumes the rows — a rule or watch over a sys*
	// relation, compiled in, Installed later, or Watched at the Go
	// level. A node nothing introspects arms no timer for it and never
	// pays for the snapshot. Setting the interval to an explicit
	// positive value forces the refresh always-on at that period;
	// negative disables introspection entirely, leaving the system
	// tables empty.
	IntrospectInterval float64
	// TraceWriter, when set, receives one line per event on every
	// relation the program watch()es — the paper's on-line debugging
	// facility (§3.5's logging ports, §7 "On-line distributed
	// debugging").
	TraceWriter io.Writer
}

// Direction classifies watch events.
type Direction int

// Watch event directions.
const (
	DirDerived  Direction = iota // produced by a local rule
	DirSent                      // shipped to another node
	DirReceived                  // arrived from another node
	DirInserted                  // stored into a table (delta only)
	DirDeleted                   // removed from a table by a delete rule
)

func (d Direction) String() string {
	switch d {
	case DirDerived:
		return "derived"
	case DirSent:
		return "sent"
	case DirReceived:
		return "received"
	case DirInserted:
		return "inserted"
	case DirDeleted:
		return "deleted"
	}
	return "?"
}

// WatchEvent is delivered to watch callbacks — P2's introspection hook
// (the paper's watch() directive and logging ports).
type WatchEvent struct {
	Node  string
	Dir   Direction
	Peer  string // remote address for Sent/Received
	Tuple *tuple.Tuple
	Time  float64
}

// WatchFunc observes watch events.
type WatchFunc func(WatchEvent)

// Stats counts node activity.
type Stats struct {
	RulesFired    int64
	TuplesDerived int64
	TuplesDropped int64 // no table, strand, or watcher wanted them
	// Probes counts equijoin work: one per probe, plus one per candidate
	// row visited when the probe walks the index (antijoins count one per
	// existence check). A probe a distinct fold answers from its row
	// cache counts its one and visits no rows: the walks skipped are the
	// work the cache exists to avoid.
	Probes int64
}

// Node is one P2 participant executing a Plan. A node is pinned to the
// loop it was built with for its whole life: every table, strand,
// timer, and transport structure it owns schedules exclusively there.
// In a sharded simulation that loop is the owning shard of an
// eventloop.ShardedSim (the p2.Deployment pins nodes shard = domain
// mod P), and the eventloop shard-ownership rule extends to all of the
// node's state — nothing here may be touched from another shard's
// epoch.
type Node struct {
	addr string
	loop eventloop.Loop
	net  netif.Network
	plan *planner.Plan
	opts Options

	ep         netif.Endpoint
	trans      *transport.Transport
	rng        *rand.Rand
	tables     map[string]*table.Table
	tableOrder []string // sorted names; deterministic sweep order
	fires      []int64  // strand runs per plan rule, by position in plan.Rules, for sysRule
	aggFires   []int64  // head emissions per plan table aggregate, for sysRule
	periodics  []*dataflow.Periodic
	watchers   map[string][]WatchFunc
	eventSeq   int64
	started    bool
	stopped    bool
	traced     int32 // plan.Watches streamed to the trace writer so far; sits in the flags' padding
	stats      Stats
	sweeper    *eventloop.Timer
	startTime  float64
	introTimer *eventloop.Timer
	// sysConsumer caches "sys* rows have an audience": an explicit
	// refresh interval, a plan that reads a system relation, or a
	// Go-level Watch on one. Raised by Start, catchUp and Watch — never
	// scanned per tick.
	sysConsumer bool
	sysref      sysRefresh // incremental system-table refresh cache

	// ctx is the node's state for the plan's element graph: its indexes,
	// scratch, VM, environment and probe counter (see dataflow.Ctx).
	ctx     dataflow.Ctx
	pending pending
}

// pending is the node's FIFO of triggered strand runs — a rule's
// position in the plan and its event — and runFn the one func value
// handed to the loop's DPC lane per entry, so triggering a strand
// allocates nothing: no per-tuple closure, no Timer. A node's Defers
// run in the order they were made, so the k-th runFn call pops the
// k-th entry, and the node's strands run in exactly the order a
// closure deferred per run would give.
type pending struct {
	runs  []strandRun
	head  int
	runFn func() // bound once to runNext
}

// strandRun is one triggered run of rule (a position in plan.Rules)
// over event.
type strandRun struct {
	rule  int
	event *tuple.Tuple
}

// runNext pops the oldest pending run and executes it.
func (n *Node) runNext() {
	q := &n.pending
	r := q.runs[q.head]
	q.runs[q.head] = strandRun{}
	q.head++
	if q.head == len(q.runs) {
		q.runs = q.runs[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.runs) {
		// Slide a perpetually non-empty queue down so the backing
		// array stays bounded by the outstanding-run high-water mark.
		kept := copy(q.runs, q.runs[q.head:])
		clear(q.runs[kept:])
		q.runs = q.runs[:kept]
		q.head = 0
	}
	n.runStrand(r.rule, r.event)
}

// NewNode builds a node for addr executing plan over net, scheduling on
// loop. Call Start to attach and begin execution. The node runs plan as
// compiled and never modifies it, so every node of a deployment may
// share one plan (Install moves a node onto its own extended copy).
func NewNode(addr string, loop eventloop.Loop, net netif.Network, plan *planner.Plan, opts Options) *Node {
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(len(addr))*7919 ^ hashAddr(addr)))
	n := &Node{
		addr:     addr,
		loop:     loop,
		net:      net,
		plan:     plan,
		opts:     opts,
		rng:      rng,
		tables:   make(map[string]*table.Table),
		watchers: make(map[string][]WatchFunc),
	}
	n.ctx.Env = &pel.Env{Clock: loop, Rand: rng, Local: addr}
	n.ctx.Deliver = n.deliverHead
	n.pending.runFn = n.runNext
	return n
}

func hashAddr(addr string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(addr); i++ {
		h ^= int64(addr[i])
		h *= 1099511628211
	}
	return h
}

// Addr returns the node's network address.
func (n *Node) Addr() string { return n.addr }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats {
	st := n.stats
	st.Probes = n.ctx.Probes
	return st
}

// ScratchCap reports how far the node's strand scratch has grown and
// the bound its plan fixes for it: the most any one of the plan's
// strands holds at once (planner.Plan.Scratch). The scratch never
// shrinks, and grows only to what a take needs, so capacity stays
// within bound.
func (n *Node) ScratchCap() (capacity, bound dataflow.ScratchSize) {
	return n.ctx.Scratch.Cap(), n.plan.Scratch()
}

// Transport exposes the node's transport for accounting taps.
func (n *Node) Transport() *transport.Transport { return n.trans }

// Table returns the named materialized table, or nil — the harness uses
// this for white-box assertions.
func (n *Node) Table(name string) *table.Table { return n.tables[name] }

// Plan returns the plan this node executes.
func (n *Node) Plan() *planner.Plan { return n.plan }

// Watch registers fn for every event concerning the named relation.
// Watching a sys* relation counts as consuming introspection: on a
// node whose refresh was demand-driven off, it arms the periodic
// snapshot so the watcher has events to hear.
func (n *Node) Watch(name string, fn WatchFunc) {
	n.watchers[name] = append(n.watchers[name], fn)
	if introspect.IsReserved(name) {
		n.sysConsumer = true
		if n.started && !n.stopped {
			n.catchUp()
			n.scheduleIntrospect()
		}
	}
}

// Start attaches the node to the network, takes on its plan (catchUp),
// delivers the plan's facts, and arms the sweep and introspection
// timers — in that order, so every periodic timer and its jitter draw
// precedes the facts, and the sweep timer precedes the refresh's.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("engine: node %s already started", n.addr)
	}
	n.started = true

	ep, err := n.net.Attach(n.addr, func(from string, payload []byte) {
		if n.trans != nil {
			n.trans.Deliver(from, payload)
		}
	})
	if err != nil {
		return fmt.Errorf("engine: node %s: %w", n.addr, err)
	}
	n.ep = ep
	tcfg := transport.DefaultConfig()
	if n.opts.Transport != nil {
		tcfg = *n.opts.Transport
	}
	n.trans = transport.New(n.loop, ep, tcfg)
	n.trans.OnReceive(n.onNetReceive)

	n.startTime = n.loop.Now()
	// A Go-level Watch on a sys* relation registered before Start also
	// counts as a consumer, so OR rather than overwrite.
	n.sysConsumer = n.sysConsumer || n.opts.IntrospectInterval > 0
	n.catchUp()
	for _, f := range n.plan.Facts {
		n.deliverLocal(tupleFromFact(f, n.addr), DirDerived)
	}
	n.scheduleSweep()
	n.scheduleIntrospect()
	return nil
}

// catchUp brings the node's state up to its plan, the one way a plan is
// grafted onto a node — at Start, at Install, and when a sys* audience
// appears. Each step takes on only what the node lacks, so a second
// call does nothing: the sys* audience a plan makes, the health
// condition library an audience needs (health.Graft), the plan's
// tables, its indexes, then the strands, table aggregates and watch()
// traces past those the node already runs.
//
// Tables are created and later swept in sorted-name order: map
// iteration order is randomized per process, and expiry sweeps can emit
// deletion deltas whose relative order would otherwise differ between
// two same-seed runs — the determinism the sharded simulator's shards=1
// vs shards=P comparison is built on. System tables are demand-driven
// like the refresh that feeds them: a node with no sys* audience never
// instantiates them (Table returns nil) until a consumer appears. At
// 10k nodes that is 60k tables-plus-indexes that never exist.
func (n *Node) catchUp() {
	n.sysConsumer = n.sysConsumer || planReadsSys(n.plan)
	if n.sysConsumer && n.trans != nil && n.plan.Tables[health.SuspectTable] == nil {
		n.plan = health.Graft(n.plan, n.trans.Config().QueueCap)
	}
	for name, ts := range n.plan.Tables {
		if n.tables[name] == nil && (n.sysConsumer || !ts.System) {
			n.tables[name] = n.newTable(ts)
			n.tableOrder = append(n.tableOrder, name)
		}
	}
	sort.Strings(n.tableOrder)
	n.ensureIndexes()
	for _, r := range n.plan.Rules[len(n.fires):] {
		n.addStrand(r)
	}
	for _, ta := range n.plan.TableAggs[len(n.aggFires):] {
		n.addTableAgg(ta)
	}
	for n.opts.TraceWriter != nil && int(n.traced) < len(n.plan.Watches) {
		n.traced++ // first: a sys* watch re-enters catchUp through Watch
		n.watchTrace(n.plan.Watches[n.traced-1])
	}
}

// newTable instantiates one table spec. System tables get a lifetime
// derived from the introspection refresh interval so their rows stay
// soft state: a few missed refreshes and they fade, like any other
// P2 relation.
func (n *Node) newTable(spec *planner.TableSpec) *table.Table {
	n.sysref.registerTable(spec.Name)
	if spec.System {
		ttl := table.Infinity
		if iv := n.introspectInterval(); iv > 0 {
			ttl = 4 * iv
		}
		return table.New(spec.Name, ttl, 0, spec.Keys, n.loop)
	}
	return spec.NewTable(n.loop)
}

// watchTrace streams the named relation's events to the trace writer —
// the OverLog watch() directive's runtime form.
func (n *Node) watchTrace(name string) {
	n.Watch(name, func(ev WatchEvent) {
		peer := ""
		switch ev.Dir {
		case DirSent:
			peer = " ->" + ev.Peer
		case DirReceived:
			peer = " <-" + ev.Peer
		}
		fmt.Fprintf(n.opts.TraceWriter, "%10.3f %s %s%s %s\n",
			ev.Time, ev.Node, ev.Dir, peer, ev.Tuple)
	})
}

// tupleFromFact materializes a fact spec for the given node address.
func tupleFromFact(f *planner.FactSpec, addr string) *tuple.Tuple {
	return tuple.New(f.Name, f.Tuple(addr)...)
}

// Stop halts timers, closes the transport, and detaches from the
// network. Used both for orderly shutdown and churn-kill.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	for _, p := range n.periodics {
		p.Stop()
	}
	if n.sweeper != nil {
		n.sweeper.Cancel()
	}
	if n.introTimer != nil {
		n.introTimer.Cancel()
	}
	if n.trans != nil {
		n.trans.Close()
	}
	if n.ep != nil {
		n.ep.Close()
	}
}

// AddFact injects a tuple as if declared as a fact — used to hand a
// node its landmark, environment rows, etc. Valid after Start.
func (n *Node) AddFact(name string, fields ...val.Value) {
	n.InjectTuple(tuple.New(name, fields...))
}

// InjectTuple delivers t to this node as a local event or table row —
// the API applications use to issue lookups, joins, and configuration.
func (n *Node) InjectTuple(t *tuple.Tuple) {
	n.loop.Defer(func() {
		if !n.stopped {
			n.deliverLocal(t, DirDerived)
		}
	})
}

// sweepInterval is how often, in seconds, finite-TTL tables are swept
// for expired tuples, even when a table is otherwise idle.
const sweepInterval = 1.0

// scheduleSweep periodically expires finite-TTL tables so deletions
// (and the continuous aggregates hanging off them) surface promptly.
func (n *Node) scheduleSweep() {
	if n.stopped {
		return
	}
	n.sweeper = n.loop.After(sweepInterval, func() {
		if n.stopped {
			return
		}
		for _, name := range n.tableOrder {
			n.tables[name].Expire()
		}
		n.scheduleSweep()
	})
}

// ensureIndexes creates, on the node's tables, every index of its plan
// the node does not have yet, so each join probes Ctx.Indexes by the
// ordinal the plan gave it. Every indexed table exists by then: a join
// over a system table makes the plan a sys* consumer, and catchUp gives
// consumers the system tables before their indexes.
func (n *Node) ensureIndexes() {
	for _, spec := range n.plan.Indexes()[len(n.ctx.Indexes):] {
		n.ctx.Indexes = append(n.ctx.Indexes, n.tables[spec.Table].EnsureIndex(spec.Key))
	}
}

// addStrand gives the node its state for the plan's next rule — its
// fire counter — and starts the rule's timer if a periodic triggers it.
func (n *Node) addStrand(r *planner.Rule) {
	n.fires = append(n.fires, 0)
	if r.Trigger.Kind == planner.TrigPeriodic {
		n.startPeriodic(len(n.fires)-1, r)
	}
}

func (n *Node) startPeriodic(i int, r *planner.Rule) {
	trig := &r.Trigger
	tick := func() {
		n.eventSeq++
		fields := make([]val.Value, 0, 2+len(trig.Extra))
		fields = append(fields, val.Str(n.addr))
		fields = append(fields, val.Str(fmt.Sprintf("%s!%s!%d", n.addr, r.ID, n.eventSeq)))
		fields = append(fields, trig.Extra...)
		n.runStrand(i, tuple.New("periodic", fields...))
	}
	p := dataflow.NewPeriodic(n.loop, trig.Period, trig.Count, tick)
	n.periodics = append(n.periodics, p)
	// The first firing lands one period out; with jitter enabled the
	// phase is uniformly random in (0, period] so nodes do not tick in
	// lock step. One-shot timers (period 0) fire immediately.
	delay := trig.Period
	if !n.opts.NoJitter && trig.Period > 0 {
		delay = n.rng.Float64() * trig.Period
	}
	p.Start(delay)
}

// addTableAgg keeps the plan's next table aggregate, ta, over the
// node's table, feeding the plan's shared head projection.
func (n *Node) addTableAgg(ta *planner.TableAggRule) {
	agg := dataflow.NewAggTable(&n.ctx, n.tables[ta.Table], ta.Fn, ta.GroupPos, ta.AggPos, "g")
	agg.Connect(ta.Head)
	n.aggFires = append(n.aggFires, 0)
	// Rules installed at runtime aggregate over tables that may already
	// hold rows; surface the current groups now that the chain is wired.
	// At node start tables are empty and this is a no-op.
	agg.Recompute()
}

// runStrand executes the strand of plan rule i for one event,
// run-to-completion: the plan's elements, the node's state.
func (n *Node) runStrand(i int, event *tuple.Tuple) {
	if n.stopped {
		return
	}
	n.stats.RulesFired++
	n.fires[i]++
	r := n.plan.Rules[i]
	r.Entry.Push(&n.ctx, event)
	if r.Flush != nil {
		r.Flush.Flush(&n.ctx, event)
	}
}

// deliverHead routes the head tuple a plan rule derived — rule is its
// position in plan.Rules, or ^j for TableAggs[j] — as a delete action,
// local delivery, or network send, chosen by the rule and the tuple's
// location specifier.
func (n *Node) deliverHead(rule int, t *tuple.Tuple) {
	del := false
	if rule < 0 {
		n.aggFires[^rule]++
	} else {
		del = n.plan.Rules[rule].Delete
	}
	if n.stopped {
		return
	}
	n.stats.TuplesDerived++
	if del {
		if tbl := n.tables[t.Name()]; tbl != nil {
			if tbl.Delete(t) {
				n.notifyWatch(t, DirDeleted, "")
			}
		}
		return
	}
	dest := t.Loc()
	if dest == n.addr || dest == "" {
		n.deliverLocal(t, DirDerived)
		return
	}
	n.notifyWatch(t, DirSent, dest)
	n.trans.Send(dest, t)
}

// onNetReceive accepts tuples from the transport.
func (n *Node) onNetReceive(from string, t *tuple.Tuple) {
	if n.stopped {
		return
	}
	n.notifyWatch(t, DirReceived, from)
	n.deliverLocal(t, DirDerived)
}

// deliverLocal stores or dispatches a tuple on this node: materialized
// relations insert (deltas re-trigger listening rules), stream names
// trigger their strands directly.
func (n *Node) deliverLocal(t *tuple.Tuple, dir Direction) {
	if dir == DirDerived {
		n.notifyWatch(t, DirDerived, "")
	}
	name := t.Name()
	if tbl, ok := n.tables[name]; ok {
		if tbl.Insert(t) {
			n.notifyWatch(t, DirInserted, "")
			n.trigger(n.plan.Triggered(name), t)
		}
		return
	}
	if rules := n.plan.Triggered(name); rules != nil {
		n.trigger(rules, t)
		return
	}
	if len(n.watchers[name]) == 0 {
		n.stats.TuplesDropped++
	}
}

// trigger schedules the strands of the given plan rules for t. Runs
// are deferred so each strand executes run-to-completion with a
// quiesced stack. The run rides the node's pending queue and the
// node's preallocated runner goes on the DPC ring — no closure per
// tuple.
func (n *Node) trigger(rules []int, t *tuple.Tuple) {
	for _, i := range rules {
		n.pending.runs = append(n.pending.runs, strandRun{i, t})
		n.loop.Defer(n.pending.runFn)
	}
}

func (n *Node) notifyWatch(t *tuple.Tuple, dir Direction, peer string) {
	fns := n.watchers[t.Name()]
	if len(fns) == 0 {
		return
	}
	ev := WatchEvent{Node: n.addr, Dir: dir, Peer: peer, Tuple: t, Time: n.loop.Now()}
	for _, fn := range fns {
		fn(ev)
	}
}
