package eventloop

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRealAfterFreePools pins that Real's timers come from Sim's pool: a
// running Real re-arming one fire-and-forget tick allocates nothing per
// tick once the pool and heap have warmed up.
func TestRealAfterFreePools(t *testing.T) {
	const ticks = 2000
	r := NewReal()
	go r.Run()
	defer r.Stop()
	var n int
	done := make(chan struct{})
	var tick func()
	tick = func() {
		if n++; n == ticks {
			close(done)
			return
		}
		r.AfterFree(0, tick)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.AfterFree(0, tick)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d ticks did not all fire", ticks)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / ticks; per >= 0.1 {
		t.Fatalf("%.3f mallocs per tick, want < 0.1", per)
	}
}

// TestRealBatchOrder pins the order Real keeps over its Sim: one
// generation of deferred calls after each callback. T1 and T2 are both
// due at time 0; T1 defers A and A defers B. Real fires T1, A, T2, B,
// where Sim's own order is T1, T2, A, B. Running Real in Sim's order
// measured udp_kv_put at 4.5% more bytes per op and udp_kv_get at 0.91x
// the ops per second, so Real keeps its order.
func TestRealBatchOrder(t *testing.T) {
	var order []string
	schedule := func(l Loop, done func()) {
		add := func(s string) { order = append(order, s) }
		l.At(0, func() {
			add("T1")
			l.Defer(func() {
				add("A")
				l.Defer(func() { add("B"); done() })
			})
		})
		l.At(0, func() { add("T2") })
	}

	r := NewReal()
	finished := make(chan struct{})
	schedule(r, func() { close(finished) })
	go r.Run()
	defer r.Stop()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatalf("order so far %v", order)
	}
	if got := strings.Join(order, " "); got != "T1 A T2 B" {
		t.Errorf("Real fired %q, want %q", got, "T1 A T2 B")
	}

	order = nil
	s := NewSim()
	schedule(s, func() {})
	s.Run(1)
	if got := strings.Join(order, " "); got != "T1 T2 A B" {
		t.Errorf("Sim fired %q, want %q", got, "T1 T2 A B")
	}
}

// TestRealWakesFromLongSleep covers the wake-up path: while Run sleeps
// on a timer an hour out, an earlier timer and a burst of posts from
// another goroutine must each run promptly.
func TestRealWakesFromLongSleep(t *testing.T) {
	r := NewReal()
	r.After(3600, func() { t.Error("the hour-long timer fired") })
	go r.Run()
	defer r.Stop()
	awaitIdle := func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			r.mu.Lock()
			idle := r.idle
			r.mu.Unlock()
			if idle {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("Run never went idle")
			}
			runtime.Gosched()
		}
	}

	awaitIdle()
	fired := make(chan struct{})
	go r.At(r.Now()+0.01, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("a timer scheduled during the sleep never fired")
	}

	awaitIdle()
	const posts = 1000
	ran := make(chan struct{}, posts)
	go func() {
		for i := 0; i < posts; i++ {
			if err := r.Post(func() { ran <- struct{}{} }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.After(2 * time.Second)
	for i := 0; i < posts; i++ {
		select {
		case <-ran:
		case <-deadline:
			t.Fatalf("%d of %d posts ran", i, posts)
		}
	}
}
