package dataflow

import "p2/internal/eventloop"

// Periodic ticks every period seconds — the timer behind OverLog's
// built-in periodic() stream (§2.3). A count > 0 limits the number of
// firings. It is one node's: tick builds that node's periodic tuple and
// runs the rule's strand for it.
type Periodic struct {
	loop    eventloop.Loop
	period  float64
	count   int64 // remaining firings; < 0 = unlimited
	stopped bool
	tick    func()
	fireFn  func() // bound once; each tick re-arms on a pooled timer
}

// NewPeriodic creates a periodic source calling tick once started.
func NewPeriodic(loop eventloop.Loop, period float64, count int64, tick func()) *Periodic {
	if count == 0 {
		count = -1
	}
	p := &Periodic{loop: loop, period: period, count: count, tick: tick}
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
	p.tick()
	if p.count > 0 {
		p.count--
	}
	if p.count != 0 && p.period > 0 {
		eventloop.ScheduleFree(p.loop, p.period, p.fireFn)
	}
}
