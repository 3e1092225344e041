// Package engine implements the P2 node runtime: it instantiates a
// compiled Plan as a live dataflow graph on one node — tables, rule
// strands, periodic timers, continuous table aggregates, and the
// network stack — and executes it on a run-to-completion event loop.
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
	// SweepInterval is how often finite-TTL tables are swept for
	// expired tuples (default 1 s). Sweeps keep continuous aggregates
	// current even when a table is otherwise idle.
	SweepInterval float64
	// NoJitter disables the random stagger of first periodic firings.
	// Experiments that need lock-step timers set it.
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
	// Health overrides the health evaluator's thresholds; nil uses
	// health.DefaultConfig(). Conditions are evaluated on every
	// introspection refresh and delivered as sysHealth rows; on nodes
	// whose refresh never armed (demand-driven, no consumer) the
	// Conditions accessor evaluates them on demand instead. Disabling
	// introspection (negative interval) disables them too.
	Health *health.Config
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
	TuplesSent    int64
	TuplesRecv    int64
	TuplesDropped int64 // no table, strand, or watcher wanted them
	// Probes counts equijoin work: one per probe, plus one per candidate
	// row visited when the probe walks the index (antijoins count one per
	// existence check). A probe answered from a cache — a ProbeCache
	// shared across strands, or a distinct fold's row cache — counts its
	// one and visits no rows: the walks skipped are the work the
	// optimizer exists to avoid.
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
	env        *pel.Env
	rng        *rand.Rand
	tables     map[string]*table.Table
	tableOrder []string // sorted names; deterministic sweep order
	strands    map[string][]*strand
	periodics  []*dataflow.Periodic
	watchers   map[string][]WatchFunc
	eventSeq   int64
	started    bool
	stopped    bool
	stats      Stats
	sweeper    *eventloop.Timer
	startTime  float64
	allStrands []*strand    // every strand, in build order, for sysRule
	aggFires   []*ruleFires // table-aggregate counters for sysRule
	introTimer *eventloop.Timer
	// sysConsumer caches "sys* rows have an audience": an explicit
	// refresh interval, a plan that reads a system relation, or a
	// Go-level Watch on one. Recomputed at Start and Install, set by
	// Watch — never scanned per tick.
	sysConsumer bool
	sysref      *sysRefresh       // incremental system-table refresh cache
	health      *health.Evaluator // condition engine, fed by the refresh

	// scratch holds every strand's working tuples (see dataflow.Scratch);
	// scratchBound is the most any built strand can hold in it at once.
	scratch      dataflow.Scratch
	scratchBound dataflow.ScratchSize
}

// flusher is the end-of-event hook shared by the two aggregate
// elements: a plain AggStream stage, or a FoldJoin carrying the fused
// aggregate. Exactly one (or neither) terminates a strand.
type flusher interface {
	Flush(event *tuple.Tuple)
}

// stage is a strand-internal element: it takes pushes and has one
// downstream binding. buildChain collects stages, so wiring the chain
// is checked at compile time.
type stage interface {
	dataflow.Pusher
	Connect(next dataflow.Pusher)
}

// strand is one rule's compiled element chain plus its trigger runner:
// a preallocated FIFO of pending events and a single func value handed
// to the loop's DPC lane, so triggering a strand allocates nothing —
// no per-tuple closure, no Timer.
type strand struct {
	rule  *planner.Rule
	entry dataflow.Pusher
	agg   flusher
	fires int64

	// firstJoin is the strand's leading probe when its prefix is
	// eligible for cross-strand sharing (see wireShares); shareKey
	// identifies the (table, key) probe it performs.
	firstJoin *dataflow.Join
	shareKey  string

	node  *Node
	queue []*tuple.Tuple // pending trigger events; one Defer per entry
	head  int
	runFn func() // bound once to runNext
}

// runNext pops the oldest pending event and executes the strand for it.
// Each queued event has exactly one matching Defer, so global FIFO
// ordering across strands is identical to deferring a closure per
// tuple.
func (s *strand) runNext() {
	t := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head > 32 && s.head*2 >= len(s.queue) {
		// Slide a perpetually non-empty queue down so the backing
		// array stays bounded by the outstanding-event high-water mark.
		kept := copy(s.queue, s.queue[s.head:])
		for i := kept; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:kept]
		s.head = 0
	}
	s.node.runStrand(s, t)
}

// ruleFires counts head emissions of a continuous table aggregate.
type ruleFires struct {
	id    string
	fires int64
}

// NewNode builds a node for addr executing plan over net, scheduling on
// loop. Call Start to attach and begin execution. The node runs plan as
// compiled and never modifies it, so every node of a deployment may
// share one plan (Install moves a node onto its own extended copy).
func NewNode(addr string, loop eventloop.Loop, net netif.Network, plan *planner.Plan, opts Options) *Node {
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = 1.0
	}
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(len(addr))*7919 ^ hashAddr(addr)))
	n := &Node{
		addr:     addr,
		loop:     loop,
		net:      net,
		plan:     plan,
		opts:     opts,
		rng:      rng,
		tables:   make(map[string]*table.Table),
		strands:  make(map[string][]*strand),
		watchers: make(map[string][]WatchFunc),
		sysref:   newSysRefresh(),
	}
	n.env = &pel.Env{Clock: loop, Rand: rng, Local: addr}
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
func (n *Node) Stats() Stats { return n.stats }

// ScratchCap reports how far the node's strand scratch has grown and
// the bound its plan fixes for it: the most any one strand built on
// this node holds at once (see scratchUse). The scratch never shrinks,
// and grows only to what a take needs, so capacity stays within bound.
func (n *Node) ScratchCap() (capacity, bound dataflow.ScratchSize) {
	return n.scratch.Cap(), n.scratchBound
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
			n.ensureSysTables()
			n.scheduleIntrospect()
		}
	}
}

// Start attaches the node to the network, creates tables, installs
// facts, and starts periodic timers.
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
	hcfg := health.DefaultConfig()
	if n.opts.Health != nil {
		hcfg = *n.opts.Health
	}
	n.health = health.NewEvaluator(hcfg, n.startTime)
	// A Go-level Watch on a sys* relation registered before Start also
	// counts as a consumer, so OR rather than overwrite.
	n.sysConsumer = n.sysConsumer || n.opts.IntrospectInterval > 0 || planReadsSys(n.plan)
	// Tables are created and later swept in sorted-name order: map
	// iteration order is randomized per process, and expiry sweeps can
	// emit deletion deltas whose relative order would otherwise differ
	// between two same-seed runs — the determinism the sharded
	// simulator's shards=1 vs shards=P comparison is built on.
	//
	// System tables are demand-driven like the refresh that feeds them:
	// a node with no sys* audience never instantiates them (Table
	// returns nil), and ensureSysTables materializes them if a consumer
	// appears later. At 10k nodes that is 60k tables-plus-indexes that
	// never exist.
	names := make([]string, 0, len(n.plan.Tables))
	for name, ts := range n.plan.Tables {
		if ts.System && !n.sysConsumer {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	n.tableOrder = names
	for _, name := range names {
		n.tables[name] = n.newTable(n.plan.Tables[name])
	}
	for _, r := range n.plan.Rules {
		n.buildStrand(r)
	}
	for _, ta := range n.plan.TableAggs {
		n.buildTableAgg(ta)
	}
	n.wireShares()
	if n.opts.TraceWriter != nil {
		for _, name := range n.plan.Watches {
			n.watchTrace(name)
		}
	}
	for _, f := range n.plan.Facts {
		n.deliverLocal(tupleFromFact(f, n.addr), DirDerived)
	}
	n.scheduleSweep()
	n.scheduleIntrospect()
	return nil
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

// Running reports whether the node has started and not stopped.
func (n *Node) Running() bool { return n.started && !n.stopped }

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

// scheduleSweep periodically expires finite-TTL tables so deletions
// (and the continuous aggregates hanging off them) surface promptly.
func (n *Node) scheduleSweep() {
	if n.stopped {
		return
	}
	n.sweeper = n.loop.After(n.opts.SweepInterval, func() {
		if n.stopped {
			return
		}
		for _, name := range n.tableOrder {
			n.tables[name].Expire()
		}
		n.scheduleSweep()
	})
}

// buildStrand compiles one rule into a chain of dataflow elements.
func (n *Node) buildStrand(r *planner.Rule) {
	s := &strand{rule: r, node: n}
	s.runFn = s.runNext
	n.buildChain(s)
	n.allStrands = append(n.allStrands, s)
	if r.Trigger.Kind == planner.TrigPeriodic {
		n.startPeriodic(r, s)
	} else {
		n.strands[r.Trigger.Name] = append(n.strands[r.Trigger.Name], s)
	}
}

// buildChain builds the dataflow element chain for s.rule and installs
// it on the strand.
func (n *Node) buildChain(s *strand) {
	r := s.rule
	var elems []stage

	var flush flusher
	shareIdx, ok := n.plan.ShareableJoin(r)
	if !ok {
		shareIdx = -1
	}
	use := scratchUse{width: r.Trigger.Arity}

	for i := 0; i < len(r.Ops); i++ {
		switch o := r.Ops[i].(type) {
		case *planner.OpJoin:
			tbl := n.tables[o.Table]
			if o.Neg {
				nj := dataflow.NewNotJoin(tbl, o.StreamKey, o.TableKey)
				nj.CountProbes(&n.stats.Probes)
				elems = append(elems, nj)
			} else {
				j := dataflow.NewJoin(tbl, o.StreamKey, o.TableKey, "w", &n.scratch)
				j.CountProbes(&n.stats.Probes)
				if i == shareIdx {
					s.firstJoin = j
					s.shareKey = fmt.Sprintf("%s|%v|%v", o.Table, o.StreamKey, o.TableKey)
				}
				// Fuse immediately-following selections into the probe
				// (filtered matches never materialize a concatenated
				// tuple), then the assignment run after them into the
				// emit (one tuple at final arity per surviving match).
				for i+1 < len(r.Ops) {
					sel, ok := r.Ops[i+1].(*planner.OpSelect)
					if !ok {
						break
					}
					j.AddFilter(sel.Prog, n.env)
					i++
				}
				extra := n.plan.Arities[o.Table]
				for i+1 < len(r.Ops) {
					asn, ok := r.Ops[i+1].(*planner.OpAssign)
					if !ok {
						break
					}
					j.AddAssigns([]*pel.Program{asn.Prog}, n.env)
					extra++
					i++
				}
				elems = append(elems, j)
				use.take(extra)
			}
		case *planner.OpSelect:
			elems = append(elems, dataflow.NewSelect(o.Prog, n.env))
		case *planner.OpAssign:
			// Fuse the whole run of consecutive assignments into one
			// element: one extended tuple instead of one per ":=" step.
			progs := []*pel.Program{o.Prog}
			for i+1 < len(r.Ops) {
				next, ok := r.Ops[i+1].(*planner.OpAssign)
				if !ok {
					break
				}
				progs = append(progs, next.Prog)
				i++
			}
			elems = append(elems, dataflow.NewMultiAssign(progs, n.env, &n.scratch))
			use.take(len(progs))
		case *planner.OpRange:
			elems = append(elems, dataflow.NewRange(o.Lo, o.Hi, n.env, &n.scratch))
			use.take(1)
		case *planner.OpFoldJoin:
			fj := dataflow.NewFoldJoin(n.tables[o.Table], o.StreamKey, o.TableKey,
				o.Fn, o.Input, o.Filters, o.Distinct, n.env, &n.scratch)
			fj.CountProbes(&n.stats.Probes)
			elems = append(elems, fj)
			flush = fj
		}
	}

	if r.Agg != nil {
		agg := dataflow.NewAggStream(r.Agg.Fn, r.Agg.AggPos, &n.scratch)
		elems = append(elems, agg)
		flush = agg
	}
	project := dataflow.NewProject(r.HeadName, r.HeadProgs, n.env)
	elems = append(elems, project)
	sink := dataflow.NewSink(func(t *tuple.Tuple) { n.deliverHead(r, t) })

	// Wire the chain: each element feeds the next, the last the sink.
	for i := 0; i < len(elems)-1; i++ {
		elems[i].Connect(elems[i+1])
	}
	elems[len(elems)-1].Connect(sink)

	s.entry, s.agg = elems[0], flush
	if _, fold := flush.(*dataflow.FoldJoin); fold || r.Agg != nil && r.Agg.Fn != dataflow.AggMin && r.Agg.Fn != dataflow.AggMax {
		use.flush(r.Trigger.Arity + 1)
	}
	n.scratchBound.Vals = max(n.scratchBound.Vals, use.most.Vals)
	n.scratchBound.Tuples = max(n.scratchBound.Tuples, use.most.Tuples)
}

// scratchUse tallies, from the plan's arities, the most of the node's
// scratch one run of a strand holds at once. Every element that takes a
// working tuple holds it until its downstream Push returns, so along the
// push chain the takes nest and their arities add up: a join's input ++
// match ++ fused assignments, an assignment run's input ++ one slot per
// step, a range's input ++ 1. The flush that ends an aggregate strand —
// a fold's, or a count/sum/avg AggStream's event ++ aggregate — runs
// after the chain has released everything, so it only has to fit alone.
// A tuple longer than its relation's planned arity raises the use by the
// excess; no compiled rule derives one.
type scratchUse struct {
	width int                  // arity of the working tuple so far
	most  dataflow.ScratchSize // what the strand holds at its deepest
}

// take records an element extending the working tuple by extra fields.
func (u *scratchUse) take(extra int) {
	u.width += extra
	u.most.Vals += u.width
	u.most.Tuples++
}

// flush records the end-of-event emission of an arity-wide tuple.
func (u *scratchUse) flush(arity int) {
	u.most.Vals = max(u.most.Vals, arity)
	u.most.Tuples = max(u.most.Tuples, 1)
}

// wireShares scans each trigger's strands for identical leading probes
// and hands every such group one shared dataflow.ProbeCache: when
// several rules fired by the same event all begin by probing the same
// table on the same key, the probe runs once and its raw matches are
// reused by the rest of the group — common-subexpression sharing across
// rule strands. Eligibility is decided by planner.ShareableJoin at
// chain-build time. Each call rebuilds the grouping from scratch, so
// Install calls it again to let grafted strands join their trigger's
// groups.
func (n *Node) wireShares() {
	for _, group := range n.strands {
		byKey := make(map[string][]*dataflow.Join)
		for _, s := range group {
			if s.firstJoin != nil {
				byKey[s.shareKey] = append(byKey[s.shareKey], s.firstJoin)
			}
		}
		for _, joins := range byKey {
			if len(joins) < 2 {
				continue
			}
			c := &dataflow.ProbeCache{}
			for _, j := range joins {
				j.Share(c)
			}
		}
	}
}

func (n *Node) startPeriodic(r *planner.Rule, s *strand) {
	trig := r.Trigger
	extra := trig.Extra
	ruleID := r.ID
	mk := func(addr string, seq int64, period float64) *tuple.Tuple {
		n.eventSeq++
		fields := make([]val.Value, 0, 2+len(extra))
		fields = append(fields, val.Str(addr))
		fields = append(fields, val.Str(fmt.Sprintf("%s!%s!%d", addr, ruleID, n.eventSeq)))
		fields = append(fields, extra...)
		return tuple.New("periodic", fields...)
	}
	p := dataflow.NewPeriodic(n.loop, n.addr, trig.Period, trig.Count, mk)
	p.Connect(dataflow.NewSink(func(t *tuple.Tuple) { n.runStrand(s, t) }))
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

func (n *Node) buildTableAgg(ta *planner.TableAggRule) {
	tbl := n.tables[ta.Table]
	agg := dataflow.NewAggTable(tbl, ta.Fn, ta.GroupPos, ta.AggPos, "g")
	project := dataflow.NewProject(ta.HeadName, ta.HeadProgs, n.env)
	rule := &planner.Rule{ID: ta.ID, HeadName: ta.HeadName, Materialized: ta.Materialized}
	rf := &ruleFires{id: ta.ID}
	n.aggFires = append(n.aggFires, rf)
	sink := dataflow.NewSink(func(t *tuple.Tuple) {
		rf.fires++
		n.deliverHead(rule, t)
	})
	agg.Connect(project)
	project.Connect(sink)
	// Rules installed at runtime aggregate over tables that may already
	// hold rows; surface the current groups now that the chain is wired.
	// At node start tables are empty and this is a no-op.
	agg.Recompute()
}

// runStrand executes one rule strand for one event, run-to-completion.
func (n *Node) runStrand(s *strand, event *tuple.Tuple) {
	if n.stopped {
		return
	}
	n.stats.RulesFired++
	s.fires++
	s.entry.Push(event)
	if s.agg != nil {
		s.agg.Flush(event)
	}
}

// deliverHead routes a derived head tuple: delete action, local
// delivery, or network send, chosen by the tuple's location specifier.
func (n *Node) deliverHead(r *planner.Rule, t *tuple.Tuple) {
	if n.stopped {
		return
	}
	n.stats.TuplesDerived++
	if r.Delete {
		if tbl := n.tables[r.HeadName]; tbl != nil {
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
	n.stats.TuplesSent++
	n.notifyWatch(t, DirSent, dest)
	n.trans.Send(dest, t)
}

// onNetReceive accepts tuples from the transport.
func (n *Node) onNetReceive(from string, t *tuple.Tuple) {
	if n.stopped {
		return
	}
	n.stats.TuplesRecv++
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
		res := tbl.Insert(t)
		if res.Delta {
			n.notifyWatch(t, DirInserted, "")
			n.trigger(name, t)
		}
		return
	}
	if _, ok := n.strands[name]; ok {
		n.trigger(name, t)
		return
	}
	if len(n.watchers[name]) == 0 {
		n.stats.TuplesDropped++
	}
}

// trigger schedules every strand listening on name. Runs are deferred
// so each strand executes run-to-completion with a quiesced stack. The
// event rides the strand's own pending queue and the strand's
// preallocated runner goes on the DPC ring — no closure per tuple.
func (n *Node) trigger(name string, t *tuple.Tuple) {
	for _, s := range n.strands[name] {
		s.queue = append(s.queue, t)
		n.loop.Defer(s.runFn)
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
