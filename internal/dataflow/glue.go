package dataflow

import (
	"p2/internal/eventloop"
	"p2/internal/tuple"
)

// Sink terminates a push chain by invoking a callback per tuple.
type Sink struct {
	fn func(*tuple.Tuple)
}

// NewSink wraps fn as a push endpoint.
func NewSink(fn func(*tuple.Tuple)) *Sink { return &Sink{fn: fn} }

// Push hands t to the callback.
func (s *Sink) Push(t *tuple.Tuple) { s.fn(t) }

// Periodic emits periodic(addr, eventID, period) tuples every period
// seconds — OverLog's built-in periodic() stream (§2.3). A count > 0
// limits the number of firings; jitter staggers the first firing to
// avoid lock-step synchronization across nodes.
type Periodic struct {
	Base
	loop    eventloop.Loop
	addr    string
	period  float64
	count   int64 // remaining firings; < 0 = unlimited
	seq     int64
	stopped bool
	mk      func(addr string, seq int64, period float64) *tuple.Tuple
	fireFn  func() // bound once; each tick re-arms on a pooled timer
}

// NewPeriodic creates a periodic source pushing downstream once
// started. mk builds each emitted tuple (the planner supplies one that
// matches the periodic predicate's arity).
func NewPeriodic(loop eventloop.Loop, addr string, period float64, count int64,
	mk func(addr string, seq int64, period float64) *tuple.Tuple) *Periodic {
	if count == 0 {
		count = -1
	}
	p := &Periodic{loop: loop, addr: addr, period: period, count: count, mk: mk}
	p.fireFn = p.fire
	return p
}

// Start schedules the first firing after delay seconds. Stop is the
// only control: no timer handle is kept, so the ticking rides pooled
// fire-and-forget timers.
func (p *Periodic) Start(delay float64) {
	eventloop.ScheduleFree(p.loop, delay, p.fireFn)
}

// Stop halts future firings.
func (p *Periodic) Stop() { p.stopped = true }

func (p *Periodic) fire() {
	if p.stopped || p.count == 0 {
		return
	}
	p.seq++
	p.PushOut(p.mk(p.addr, p.seq, p.period))
	if p.count > 0 {
		p.count--
	}
	if p.count != 0 && p.period > 0 {
		eventloop.ScheduleFree(p.loop, p.period, p.fireFn)
	}
}
