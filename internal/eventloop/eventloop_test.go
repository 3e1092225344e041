package eventloop

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10", s.Now())
	}
}

func TestSimTieBreakFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestSimAfterAndNow(t *testing.T) {
	s := NewSim()
	var at float64
	s.After(5, func() {
		at = s.Now()
		s.After(2.5, func() { at = s.Now() })
	})
	s.Run(100)
	if at != 7.5 {
		t.Errorf("nested After fired at %v, want 7.5", at)
	}
}

func TestSimDeferRunsAfterCurrentHandler(t *testing.T) {
	s := NewSim()
	var order []string
	s.At(1, func() {
		s.Defer(func() { order = append(order, "deferred") })
		order = append(order, "handler")
	})
	s.Run(1)
	if len(order) != 2 || order[0] != "handler" || order[1] != "deferred" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 1 {
		t.Errorf("defer must not advance time: now = %v", s.Now())
	}
}

func TestSimCancel(t *testing.T) {
	s := NewSim()
	fired := false
	tm := s.At(1, func() { fired = true })
	tm.Cancel()
	s.Run(5)
	if fired {
		t.Error("canceled timer fired")
	}
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
}

func TestSimPastEventClamps(t *testing.T) {
	s := NewSim()
	s.Run(10)
	fired := -1.0
	s.At(3, func() { fired = s.Now() }) // in the past
	s.Run(20)
	if fired != 10 {
		t.Errorf("past event fired at %v, want clamped to 10", fired)
	}
}

func TestSimStep(t *testing.T) {
	s := NewSim()
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !step(s) || s.Now() != 1 || n != 1 {
		t.Fatal("first step")
	}
	if !step(s) || s.Now() != 2 || n != 2 {
		t.Fatal("second step")
	}
	if step(s) {
		t.Fatal("empty loop should not step")
	}
}

// step fires the next pending event, advancing virtual time. It reports
// whether an event ran.
func step(s *Sim) bool {
	fn, ok := s.next(math.Inf(1))
	if !ok {
		return false
	}
	fn()
	return true
}

func TestSimRunReturnsCount(t *testing.T) {
	s := NewSim()
	for i := 0; i < 7; i++ {
		s.At(float64(i), func() {})
	}
	if got := s.Run(100); got != 7 {
		t.Errorf("Run fired %d, want 7", got)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestSimRunUntilBoundary(t *testing.T) {
	s := NewSim()
	fired := []float64{}
	s.At(5, func() { fired = append(fired, 5) })
	s.At(10, func() { fired = append(fired, 10) })
	s.At(10.001, func() { fired = append(fired, 10.001) })
	s.Run(10) // inclusive boundary
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	s.Run(11)
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSimTimersDuringHandlers(t *testing.T) {
	// A periodic self-rescheduling handler — the pattern the Periodic
	// dataflow element uses.
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(3, tick)
		}
	}
	s.After(3, tick)
	s.Run(14.999)
	if count != 4 {
		t.Errorf("count = %d at t=14.999, want 4", count)
	}
	s.Run(15)
	if count != 5 {
		t.Errorf("count = %d at t=15, want 5", count)
	}
}

func TestRealLoopBasics(t *testing.T) {
	r := NewReal()
	done := make(chan struct{})
	var order []int
	r.After(0.01, func() { order = append(order, 2); r.Stop() })
	r.Post(func() { order = append(order, 1) })
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real loop did not finish")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestRealLoopTimerOrdering(t *testing.T) {
	r := NewReal()
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		r.After(0.001*float64(i), func() { n.Add(1) })
	}
	r.After(0.05, r.Stop)
	finished := make(chan struct{})
	go func() { r.Run(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	if n.Load() != 10 {
		t.Errorf("fired %d timers, want 10", n.Load())
	}
}

func TestRealLoopCancel(t *testing.T) {
	r := NewReal()
	fired := atomic.Bool{}
	tm := r.After(0.02, func() { fired.Store(true) })
	tm.Cancel()
	r.After(0.05, r.Stop)
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	<-done
	if fired.Load() {
		t.Error("canceled real timer fired")
	}
}

func TestRealPostFromOtherGoroutine(t *testing.T) {
	r := NewReal()
	got := make(chan int, 1)
	go func() {
		r.Post(func() { got <- 42; r.Stop() })
	}()
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case v := <-got:
		if v != 42 {
			t.Errorf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("posted fn never ran")
	}
	<-done
}

func BenchmarkSimScheduleAndFire(b *testing.B) {
	s := NewSim()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		step(s)
	}
}
