// Package eventloop provides P2's execution model: a single-threaded,
// run-to-completion event loop in the style of libasync (§3.1: "Each
// event handler runs to completion before the next one is called").
//
// Two implementations share the Loop interface:
//
//   - Sim: a discrete-event loop over virtual time, shared by every node
//     in a simulation. Twenty minutes of protocol time execute in
//     milliseconds and runs are bit-for-bit reproducible.
//   - Real: a wall-clock loop, used when deploying P2 nodes over real
//     UDP sockets.
//
// Every timer lives in a Sim: Real keeps one behind its mutex, and
// ShardedSim's control lane is one. Sim owns the scheduling state — the
// heap, the sequence counter, the timer pool, the deferred-call ring
// and the live-timer gauge — and the other two are policies over it,
// differing only in when they run what is due (see Real).
//
// Scheduling has two lanes. Timed work goes through a binary heap of
// value entries, each carrying its (time, sequence) key inline beside
// its Timer, so a sift compares keys without dereferencing a Timer.
// Deferred procedure calls (§3.3) — same-instant FIFO
// work by definition — go through a dedicated ring buffer that bypasses
// the heap entirely: a Defer is one ring slot, no Timer, no heap push,
// no allocation. Ordering against At(now) timers stays deterministic
// because both lanes share one scheduling sequence counter.
//
// Time is modeled as float64 seconds, matching the val.Time kind that
// OverLog's f_now() returns.
package eventloop

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is returned by Real.Post once the loop has been stopped:
// the callback will never run, so callers waiting on it must not block.
var ErrStopped = errors.New("eventloop: loop stopped")

// Clock supplies the current time in seconds.
type Clock interface {
	Now() float64
}

// Loop schedules callbacks. All callbacks run sequentially — handlers
// never observe concurrent execution, which is what lets table and
// dataflow code run lock-free.
type Loop interface {
	Clock
	// At schedules fn at absolute time t (clamped to now if in the past).
	At(t float64, fn func()) *Timer
	// After schedules fn d seconds from now.
	After(d float64, fn func()) *Timer
	// AfterFree schedules fn d seconds from now on a pooled Timer and
	// returns no handle: the callback cannot be canceled, which is what
	// lets the loop recycle the Timer when it fires. Periodic re-arms
	// and other fire-and-forget delays use it, so steady ticking does
	// not churn Timer allocations.
	AfterFree(d float64, fn func())
	// Defer schedules fn to run as soon as the current handler
	// completes — the "deferred procedure call" from §3.3.
	Defer(fn func())
	// Pending returns the number of live timers plus queued calls not
	// yet run: the sysNode relation's queue-length gauge.
	Pending() int
}

// Timer lifecycle bits. A timer is scheduled with state 0 (or stFree
// when fire-and-forget); Cancel sets stCanceled, removal from the heap
// sets stPopped. Exactly one of those two transitions decrements the
// loop's live-timer gauge, which is what makes Pending O(1) instead of
// an O(heap) scan.
const (
	stCanceled uint32 = 1 << iota // will not fire
	stPopped                      // left the heap (fired or discarded)
	stFree                        // no handle retained; pool on pop
)

// Timer is a handle to a scheduled callback. Its firing time and
// sequence live in the heap entry that carries it, not here.
type Timer struct {
	fn    func()
	state atomic.Uint32
	live  *atomic.Int64 // owning loop's live-timer gauge
}

// Cancel prevents the callback from firing. Safe to call after firing,
// and (because the state word is atomic) from any goroutine.
func (t *Timer) Cancel() {
	if t == nil {
		return
	}
	for {
		s := t.state.Load()
		if s&stCanceled != 0 {
			return
		}
		if t.state.CompareAndSwap(s, s|stCanceled) {
			if s&stPopped == 0 && t.live != nil {
				t.live.Add(-1)
			}
			return
		}
	}
}

// CancelFree cancels the timer and releases the handle: the caller
// promises to drop every reference and never touch the timer again, so
// the loop may recycle the struct once it leaves the heap. Hot
// re-arm/disarm cycles (retransmission timers, delayed acks) use this
// instead of Cancel to avoid churning a Timer allocation per cycle.
func (t *Timer) CancelFree() {
	if t == nil {
		return
	}
	t.Cancel()
	for {
		s := t.state.Load()
		if s&stFree != 0 || t.state.CompareAndSwap(s, s|stFree) {
			return
		}
	}
}

// take marks the timer as removed from the heap, decrementing the live
// gauge. It reports false if the timer was canceled first.
func (t *Timer) take() bool {
	for {
		s := t.state.Load()
		if s&stCanceled != 0 {
			return false
		}
		if t.state.CompareAndSwap(s, s|stPopped) {
			if t.live != nil {
				t.live.Add(-1)
			}
			return true
		}
	}
}

// canceled reports whether Cancel has been called.
func (t *Timer) canceled() bool { return t.state.Load()&stCanceled != 0 }

// heapEntry is one heap slot: the ordering key inline beside the event
// it orders, so sifting never dereferences the event.
type heapEntry[E any] struct {
	at  float64
	seq uint64
	ev  E
}

// before orders entries by (time, insertion sequence), so simultaneous
// events fire deterministically in scheduling order.
func (e *heapEntry[E]) before(o *heapEntry[E]) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap of entries, Sim's timer heap
// (E = *Timer). The entry at index 0 is the earliest.
type eventHeap[E any] []heapEntry[E]

// push adds ev at (at, seq), sifting it up from the last slot.
func (h *eventHeap[E]) push(at float64, seq uint64, ev E) {
	e := heapEntry[E]{at: at, seq: seq, ev: ev}
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = e
}

// pop removes the earliest entry, sifting the last one down from the
// root.
func (h *eventHeap[E]) pop() {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = heapEntry[E]{}
	s = s[:n]
	*h = s
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
}

// dpc is one deferred procedure call: the callback plus its position in
// the loop's global scheduling order (shared with the timer heap, so
// Defer interleaves deterministically with At(now)).
type dpc struct {
	fn  func()
	seq uint64
}

// dpcRing is a growable FIFO ring of deferred procedure calls — the
// same-instant lane that bypasses the timer heap. Push and pop are O(1)
// and allocation-free once the ring has grown to the workload's
// high-water mark.
type dpcRing struct {
	buf  []dpc
	head int
	n    int
}

func (q *dpcRing) push(fn func(), seq uint64) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = dpc{fn: fn, seq: seq}
	q.n++
}

func (q *dpcRing) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8 // power of two; indexing masks instead of dividing
	}
	nb := make([]dpc, size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

func (q *dpcRing) pop() func() {
	d := q.buf[q.head]
	q.buf[q.head] = dpc{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return d.fn
}

// peekSeq returns the scheduling sequence of the oldest entry; call
// only when n > 0.
func (q *dpcRing) peekSeq() uint64 { return q.buf[q.head].seq }

// maxTimerPool bounds the free list of recycled Timer structs.
const maxTimerPool = 256

// Sim is a virtual-time discrete-event loop. Not safe for concurrent
// use: at any moment exactly one goroutine may touch a Sim. In a
// single-loop simulation that is the simulation goroutine; under a
// ShardedSim each shard's Sim is owned by its worker during an epoch
// and by the coordinator at barriers, with the epoch handoff's atomic
// generation and done counters serializing the handoff (the
// shard-ownership rule — see the package documentation in sharded.go).
// Everything pinned to a shard (nodes, tables, transports) inherits the
// same rule.
//
// A scheduled timer costs one heap entry and one Timer; AfterFree and
// AtFree take the Timer from a pool and return it when it fires, so a
// steady stream of fire-and-forget events — periodic re-arms, the
// simulated network's datagram arrivals — allocates nothing.
type Sim struct {
	now   float64
	seq   uint64
	heap  eventHeap[*Timer]
	dq    dpcRing
	livec atomic.Int64 // scheduled, uncanceled timers (not DPCs)
	pool  []*Timer     // recycled fire-and-forget timers
}

// NewSim returns a simulation loop starting at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at virtual time t.
func (s *Sim) At(t float64, fn func()) *Timer { return s.schedule(t, fn, 0) }

// After schedules fn d seconds from the current virtual time.
func (s *Sim) After(d float64, fn func()) *Timer {
	return s.schedule(s.now+max(d, 0), fn, 0)
}

// AfterFree schedules fn d seconds out on a pooled timer. No handle is
// returned — the caller cannot cancel, and the Timer struct is recycled
// when it leaves the heap.
func (s *Sim) AfterFree(d float64, fn func()) {
	s.schedule(s.now+max(d, 0), fn, stFree)
}

// AtFree is AfterFree at absolute virtual time t (clamped to now): a
// caller that computed an absolute time schedules it exactly, where
// AfterFree(t-now) would round it through the subtraction.
func (s *Sim) AtFree(t float64, fn func()) { s.schedule(t, fn, stFree) }

func (s *Sim) schedule(at float64, fn func(), flags uint32) *Timer {
	at = max(at, s.now)
	s.seq++
	tm := s.get()
	tm.fn = fn
	tm.live = &s.livec
	tm.state.Store(flags)
	s.livec.Add(1)
	s.heap.push(at, s.seq, tm)
	return tm
}

func (s *Sim) get() *Timer {
	if n := len(s.pool); n > 0 {
		tm := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return tm
	}
	return &Timer{}
}

// recycle returns tm to the pool if its owner released the handle.
func (s *Sim) recycle(tm *Timer) {
	if tm.state.Load()&stFree != 0 && len(s.pool) < maxTimerPool {
		tm.fn = nil
		s.pool = append(s.pool, tm)
	}
}

// Defer schedules fn at the current virtual time, after already-queued
// same-instant events. It is one ring slot: no Timer, no heap push, no
// allocation beyond the queued entry.
func (s *Sim) Defer(fn func()) {
	s.seq++
	s.dq.push(fn, s.seq)
}

// top returns the earliest live heap entry, discarding (and recycling)
// canceled timers on the way, or nil when no timer is scheduled.
func (s *Sim) top() *heapEntry[*Timer] {
	for len(s.heap) > 0 {
		tm := s.heap[0].ev
		if !tm.canceled() {
			return &s.heap[0]
		}
		s.heap.pop()
		s.recycle(tm)
	}
	return nil
}

// popDue pops the earliest live timer if it is due at or before limit,
// advancing the clock to its time, and returns its callback. The Timer
// is recycled before the callback runs, so no caller holds it.
func (s *Sim) popDue(limit float64) (func(), bool) {
	for {
		top := s.top()
		if top == nil || top.at > limit {
			return nil, false
		}
		at, tm := top.at, top.ev
		s.heap.pop()
		ok := tm.take()
		fn := tm.fn
		s.recycle(tm)
		if ok {
			s.now = at
			return fn, true
		}
	}
}

// next pops the earliest runnable event due at or before limit,
// advancing virtual time. The DPC ring holds same-instant work, so a
// heap timer runs first only when it is due at the current instant and
// was scheduled earlier than the ring's oldest entry.
func (s *Sim) next(limit float64) (func(), bool) {
	if s.dq.n > 0 {
		if top := s.top(); top == nil || top.at > s.now || top.seq > s.dq.peekSeq() {
			return s.dq.pop(), true
		}
	}
	return s.popDue(limit)
}

// Run fires events until the queue is empty or virtual time would pass
// until. It returns the number of events fired. On return the clock
// reads min(until, time of last event) — or exactly until if the queue
// drained earlier.
func (s *Sim) Run(until float64) int {
	n := 0
	for {
		fn, ok := s.next(until)
		if !ok {
			break
		}
		fn()
		n++
	}
	s.now = max(s.now, until)
	return n
}

// RunFor advances the loop by d seconds of virtual time.
func (s *Sim) RunFor(d float64) int { return s.Run(s.now + d) }

// Pending returns the number of live (uncanceled) timers plus queued
// deferred procedure calls, in O(1): the gauge is kept on
// schedule/cancel/pop, so no scan walks lingering canceled timers.
func (s *Sim) Pending() int { return int(s.livec.Load()) + s.dq.n }

// Real is a wall-clock loop. Callbacks still run one at a time on the
// loop goroutine; every other method is safe to call from any goroutine
// (e.g. a UDP reader posting inbound datagrams).
//
// Its timers and deferred calls live in a Sim behind the mutex: same
// heap, pool and gauge. Real keeps only its own order. Run works in
// batches: posted calls first, then the timers due when the batch
// began; after every callback, one generation of deferred calls (the
// ones queued when it returned); Stop honored between callbacks and
// Cancel until the timer is popped. Sim's order would run a timer due
// at the same instant before the deferred calls of the handler before
// it. Running Real in Sim's order, over the same data structures,
// measured worse on loopback UDP (2-core VM, 8 alternating pairs):
// udp_kv_put sent 4.5% more bytes per op and udp_kv_get ran at 0.91x
// the ops per second. The cost was in the order, not the structures.
type Real struct {
	mu     sync.Mutex
	sim    Sim      // timers and deferred calls; touched only under mu
	posted []func() // Post's inbox, run at the head of the next batch
	stop   bool
	idle   bool          // Run is waiting for work; scheduling wakes it
	wake   chan struct{} // 1-slot: a token per wake-up while idle
	stopc  chan struct{}
	start  time.Time
}

// NewReal returns a wall-clock loop; time zero is the moment of creation.
func NewReal() *Real {
	return &Real{start: time.Now(), wake: make(chan struct{}, 1), stopc: make(chan struct{})}
}

// Now returns seconds since the loop was created.
func (r *Real) Now() float64 { return time.Since(r.start).Seconds() }

// At schedules fn at absolute loop time t (clamped to the time of the
// last timer fired).
func (r *Real) At(t float64, fn func()) *Timer { return r.schedule(t, fn, 0) }

// After schedules fn d seconds from now.
func (r *Real) After(d float64, fn func()) *Timer {
	return r.schedule(r.Now()+max(d, 0), fn, 0)
}

// AfterFree schedules fn d seconds from now on a pooled timer, without
// a handle.
func (r *Real) AfterFree(d float64, fn func()) {
	r.schedule(r.Now()+max(d, 0), fn, stFree)
}

func (r *Real) schedule(t float64, fn func(), flags uint32) *Timer {
	r.mu.Lock()
	tm := r.sim.schedule(t, fn, flags)
	r.unlockAndWake()
	return tm
}

// Defer schedules fn on the deferred-procedure-call ring: it runs as
// soon as the in-progress handler completes, before the posted calls
// and due timers still to run in the same batch.
func (r *Real) Defer(fn func()) {
	r.mu.Lock()
	r.sim.Defer(fn)
	r.unlockAndWake()
}

// Post enqueues fn from any goroutine; it runs on the loop goroutine.
// Once the loop has been stopped Post returns ErrStopped and the
// callback is guaranteed never to run — callers that wait for the
// callback's result must check the error (and select on Stopped for the
// window where a Post was accepted but Stop preempted the loop) or they
// would block forever on a dead loop.
func (r *Real) Post(fn func()) error {
	r.mu.Lock()
	if r.stop {
		r.mu.Unlock()
		return ErrStopped
	}
	r.posted = append(r.posted, fn)
	r.unlockAndWake()
	return nil
}

// unlockAndWake releases mu and, if Run was waiting for work, wakes it
// with a token sent after the unlock, so Run does not wake into a held
// lock.
func (r *Real) unlockAndWake() {
	idle := r.idle
	r.idle = false
	r.mu.Unlock()
	if idle {
		select {
		case r.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// Stopped returns a channel closed when the loop has been stopped.
// Posted callbacks accepted before Stop may or may not run; once
// Stopped is closed, a caller waiting on one must stop waiting.
func (r *Real) Stopped() <-chan struct{} { return r.stopc }

// Pending returns the number of live scheduled timers plus queued
// deferred and posted functions not yet run. Canceled timers (e.g.
// transport retransmit timers voided by an ack) never count: the gauge
// is decremented the moment Cancel runs.
func (r *Real) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sim.Pending() + len(r.posted)
}

// Stop makes Run return after the current handler and closes the
// Stopped channel. Idempotent; safe from any goroutine.
func (r *Real) Stop() {
	r.mu.Lock()
	if !r.stop {
		r.stop = true
		close(r.stopc)
	}
	r.unlockAndWake()
}

// runDPCs drains one generation of the deferred-call ring — the entries
// present at call time — running each outside the lock. What they defer
// waits for the next call, after the next callback, so a defer cascade
// cannot starve the batch loop where Stop is honored.
func (r *Real) runDPCs() {
	r.mu.Lock()
	gen := r.sim.dq.n
	r.mu.Unlock()
	for i := 0; i < gen; i++ {
		r.mu.Lock()
		if r.stop || r.sim.dq.n == 0 {
			r.mu.Unlock()
			return
		}
		fn := r.sim.dq.pop()
		r.mu.Unlock()
		fn()
	}
}

// Run processes deferred calls, posted functions, and timers until Stop
// is called. It must be called from exactly one goroutine.
func (r *Real) Run() {
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	defer wait.Stop()
	var fns []func()
	for {
		r.mu.Lock()
		if !r.await(wait) {
			r.mu.Unlock()
			return
		}
		fns, r.posted = r.posted, fns[:0]
		now := r.Now()
		r.mu.Unlock()
		// Stop is honored between callbacks — "Run returns after the
		// current handler" — so a batch entry that stops the loop
		// prevents the rest of its batch from running; combined with
		// Post's ErrStopped this is what lets a waiter released by
		// Stopped know its callback will never run.
		r.runDPCs()
		for _, fn := range fns {
			if r.stopping() {
				break
			}
			fn()
			r.runDPCs()
		}
		clear(fns)
		// Due timers are popped one at a time, so an earlier callback's
		// Cancel voids a later one and no recycled Timer is held across
		// a callback.
		for !r.stopping() {
			r.mu.Lock()
			fn, ok := r.sim.popDue(now)
			r.mu.Unlock()
			if !ok {
				break
			}
			fn()
			r.runDPCs()
		}
	}
}

// await blocks, with mu held on entry and on return, until a batch has
// work: a posted or deferred call, or a timer due. It reports false
// once Stop has been called. While it waits, Run is idle and every
// scheduling call sends a wake-up token; the earliest timer's deadline
// rides one reused time.Timer.
func (r *Real) await(wait *time.Timer) bool {
	for !r.stop {
		if r.sim.dq.n > 0 || len(r.posted) > 0 {
			return true
		}
		d := math.Inf(1)
		if top := r.sim.top(); top != nil {
			if d = top.at - r.Now(); d <= 0 {
				return true
			}
		}
		r.idle = true
		r.mu.Unlock()
		if math.IsInf(d, 1) {
			<-r.wake
		} else {
			wait.Reset(time.Duration(d * float64(time.Second)))
			select {
			case <-r.wake:
			case <-wait.C:
			}
			if !wait.Stop() {
				select {
				case <-wait.C: // fired while the wake-up was taken
				default:
				}
			}
		}
		r.mu.Lock()
		r.idle = false
	}
	return false
}

// stopping reports whether Stop has been called.
func (r *Real) stopping() bool {
	select {
	case <-r.stopc:
		return true
	default:
		return false
	}
}
