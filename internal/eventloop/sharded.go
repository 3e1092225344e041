// Sharded parallel simulation: a ShardedSim partitions a deployment
// across P per-shard Sim loops and runs them concurrently in epochs
// bounded by a conservative lookahead, the classic conservative
// (Chandy-Misra-style) synchronization discipline specialized to a
// network whose minimum cross-shard latency is known up front.
//
// # Shard-ownership rule
//
// Every simulated entity (a node, its tables, its transport state) is
// pinned to exactly one shard and must only ever be touched from that
// shard's Sim: by handlers the shard runs during an epoch, or by the
// coordinator goroutine between epochs when every shard is quiescent.
// Cross-shard interaction happens exclusively through values exchanged
// at epoch barriers (see Exchanger) or through the AtBarrier control
// lane. Under this rule no handler ever observes concurrent execution,
// so all the single-threaded invariants Sim documents keep holding
// shard-locally — and the race detector will catch violations, because
// epoch execution really is parallel.
//
// # Epochs
//
// An epoch ends at the earliest of three times: one lookahead past its
// start, the horizon of the Run call, and the next due control
// callback. So a control callback runs at exactly its time, with every
// shard clock reading that time.
//
// # Determinism
//
// A ShardedSim run is reproducible, and — when barrier work is merged
// in a canonical order, as simnet does with its (timestamp, sender,
// sequence) datagram sort — bit-identical across shard counts: the
// epoch grid depends only on the lookahead, the Run calls and the
// control times, every shard-local event order is fixed by its own
// (time, seq) heap, and all cross-shard scheduling happens on the
// coordinator goroutine at barriers, in a deterministic order.
// Wall-clock interleaving of shard goroutines within an epoch is
// invisible because shards share no mutable state.
package eventloop

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// Exchanger is barrier-time cross-shard glue: after every epoch the
// coordinator calls Exchange on the coordinator goroutine while all
// shards are quiescent. Implementations drain per-shard mailboxes and
// schedule the collected work onto destination shards in a canonical
// order (the network does this for datagrams). now is the epoch
// boundary just reached; everything exchanged must be scheduled at or
// after it — conservative lookahead has already guaranteed that for
// work generated during the epoch.
type Exchanger interface {
	Exchange(now float64)
}

// spinYields is how many times an idle worker yields its processor
// while waiting for the next epoch before it parks. Barrier work is
// usually a few microseconds, so a worker spinning through it picks up
// the next epoch without a wake-up; between Run calls it parks and
// burns no core.
const spinYields = 256

// closedGen is the generation Close publishes: workers seeing it exit.
const closedGen = math.MaxUint64

// worker is the handoff state of one worker shard (shards 1..P-1).
type worker struct {
	done   atomic.Uint64 // last generation this worker finished
	events int           // events fired in that generation; read after done
	parked atomic.Bool   // about to block, or blocked, on wake
	wake   chan struct{} // 1-slot: a token per publish that saw parked
}

// ShardedSim coordinates P Sim loops through conservative-lookahead
// epochs: every shard runs to the same epoch boundary (run-to-completion
// within its own timeline), then the coordinator — the goroutine calling
// Run — executes barrier work: registered Exchangers first, then due
// AtBarrier control callbacks, in (time, schedule-order) order.
//
// Shard 0 always executes on the coordinator goroutine, so a
// single-shard ShardedSim degenerates to a plain Sim run with a little
// barrier bookkeeping and no cross-goroutine traffic at all. Worker
// shards receive each epoch through a generation counter: the
// coordinator writes the boundary, bumps gen and wakes any parked
// worker; a worker spins briefly on gen before parking, and the
// coordinator spins on each worker's done counter. The two atomics are
// the happens-before edges that hand shard ownership back and forth.
type ShardedSim struct {
	shards    []*Sim
	lookahead float64
	now       float64

	exchangers []Exchanger
	controls   Sim // the AtBarrier lane, run by the coordinator

	gen     atomic.Uint64 // epoch generation; closedGen after Close
	end     float64       // boundary of generation gen; written before gen
	workers []*worker     // workers[i-1] runs shard i
}

// NewShardedSim builds a coordinator over p shards with the given
// conservative lookahead (seconds). The lookahead must be positive and
// no larger than the minimum latency of any cross-shard interaction,
// or conservative synchronization is unsound. It may be +Inf when
// nothing crosses shards: epochs then end only at control times and
// Run horizons.
func NewShardedSim(p int, lookahead float64) *ShardedSim {
	if p < 1 {
		p = 1
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("eventloop: non-positive lookahead %g", lookahead))
	}
	ss := &ShardedSim{lookahead: lookahead}
	for i := 0; i < p; i++ {
		ss.shards = append(ss.shards, NewSim())
	}
	for i := 1; i < p; i++ {
		w := &worker{wake: make(chan struct{}, 1)}
		ss.workers = append(ss.workers, w)
		go ss.work(w, ss.shards[i])
	}
	return ss
}

// work owns shard s during epochs: it runs the shard to each published
// boundary and reports back through done.
func (ss *ShardedSim) work(w *worker, s *Sim) {
	var seen uint64
	for {
		g := ss.await(w, seen)
		if g == closedGen {
			return
		}
		w.events = s.Run(ss.end)
		w.done.Store(g)
		seen = g
	}
}

// await returns the first generation other than seen: it yields
// spinYields times, then parks on w.wake. Parking is Dekker-style: the
// worker sets parked before its last look at gen, and the coordinator
// bumps gen before it looks at parked, so at least one of them sees the
// other and no wake-up is lost. A stale token only costs one more look.
func (ss *ShardedSim) await(w *worker, seen uint64) uint64 {
	for i := 0; i < spinYields; i++ {
		if g := ss.gen.Load(); g != seen {
			return g
		}
		runtime.Gosched()
	}
	for {
		w.parked.Store(true)
		if g := ss.gen.Load(); g != seen {
			w.parked.Store(false)
			return g
		}
		<-w.wake
		w.parked.Store(false)
	}
}

// publish hands generation g to every worker.
func (ss *ShardedSim) publish(g uint64) {
	ss.gen.Store(g)
	for _, w := range ss.workers {
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default: // a token is already waiting
			}
		}
	}
}

// Shards returns the shard count.
func (ss *ShardedSim) Shards() int { return len(ss.shards) }

// Shard returns shard i's loop. Entities pinned to shard i schedule
// exclusively on it; see the shard-ownership rule in the package docs.
func (ss *ShardedSim) Shard(i int) *Sim { return ss.shards[i] }

// Lookahead returns the longest epoch in seconds.
func (ss *ShardedSim) Lookahead() float64 { return ss.lookahead }

// Now returns the global epoch floor: every shard's clock reads at
// least this. Between Run calls all shard clocks read exactly this.
func (ss *ShardedSim) Now() float64 { return ss.now }

// AddExchanger registers barrier-time cross-shard glue, called after
// every epoch in registration order.
func (ss *ShardedSim) AddExchanger(x Exchanger) {
	ss.exchangers = append(ss.exchangers, x)
}

// AtBarrier schedules fn on the coordinator goroutine at time t — the
// control lane for driver-level actions (spawning a node, killing one,
// installing a partition) that touch cross-shard state and therefore
// must run while every shard is quiescent. The epoch in progress ends
// at t, so fn runs at exactly t, after every shard event due at or
// before t. Callbacks due at the same time run in schedule order, and
// Cancel on the returned Timer suppresses the callback. Coordinator
// goroutine only.
func (ss *ShardedSim) AtBarrier(t float64, fn func()) *Timer {
	// The lane's own clock reads the last control's time, which may
	// trail ss.now; clamping here keeps a late control after the ones
	// already due at ss.now.
	return ss.controls.At(max(t, ss.now), fn)
}

// nextControl returns the time of the earliest live control callback,
// or +Inf when none is pending.
func (ss *ShardedSim) nextControl() float64 {
	if top := ss.controls.top(); top != nil {
		return top.at
	}
	return math.Inf(1)
}

// runBarrier executes exchangers, then control callbacks due at or
// before the current global time.
func (ss *ShardedSim) runBarrier() {
	for _, x := range ss.exchangers {
		x.Exchange(ss.now)
	}
	for {
		fn, ok := ss.controls.popDue(ss.now)
		if !ok {
			return
		}
		fn()
	}
}

// runEpoch runs every shard to the boundary, shard 0 on the calling
// goroutine, and returns the number of events fired across shards.
func (ss *ShardedSim) runEpoch(end float64) int {
	ss.end = end
	g := ss.gen.Load() + 1
	ss.publish(g)
	n := ss.shards[0].Run(end)
	for _, w := range ss.workers {
		for w.done.Load() != g {
			runtime.Gosched()
		}
		n += w.events
	}
	return n
}

// Run advances the whole sharded simulation to the given global time,
// epoch by epoch, and returns the number of events fired. It must be
// called from one goroutine — the coordinator — which is also the only
// goroutine allowed to touch any shard between Run calls.
func (ss *ShardedSim) Run(until float64) int {
	if math.IsInf(until, 1) {
		panic("eventloop: ShardedSim.Run requires a finite horizon")
	}
	total := 0
	ss.runBarrier() // work due at the current instant (e.g. time-zero spawns)
	for ss.now < until {
		end := math.Min(ss.now+ss.lookahead, math.Min(until, ss.nextControl()))
		total += ss.runEpoch(end)
		ss.now = end
		ss.runBarrier()
	}
	return total
}

// RunFor advances the simulation by d seconds of virtual time.
func (ss *ShardedSim) RunFor(d float64) int { return ss.Run(ss.now + d) }

// Close releases the worker goroutines by publishing a terminal
// generation. The ShardedSim must not be run afterwards; Close is
// idempotent.
func (ss *ShardedSim) Close() {
	if ss.gen.Load() != closedGen {
		ss.publish(closedGen)
	}
}
