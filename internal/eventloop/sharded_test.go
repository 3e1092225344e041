package eventloop

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedEpochGrid checks that shards advance in lockstep epochs
// and that clocks agree with the global floor at every barrier.
func TestShardedEpochGrid(t *testing.T) {
	ss := NewShardedSim(3, 0.002)
	defer ss.Close()
	var boundaries []float64
	ss.AddExchanger(exchangerFunc(func(now float64) {
		boundaries = append(boundaries, now)
		for i := 0; i < ss.Shards(); i++ {
			if got := ss.Shard(i).Now(); got != now {
				t.Fatalf("shard %d clock %g at barrier %g", i, got, now)
			}
		}
	}))
	ss.Run(0.01)
	if ss.Now() != 0.01 {
		t.Fatalf("global now %g, want 0.01", ss.Now())
	}
	// Barrier at time zero, then one per epoch.
	want := []float64{0, 0.002, 0.004, 0.006, 0.008, 0.01}
	if len(boundaries) != len(want) {
		t.Fatalf("barriers %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("barrier %d at %g, want %g", i, boundaries[i], want[i])
		}
	}
}

type exchangerFunc func(now float64)

func (f exchangerFunc) Exchange(now float64) { f(now) }

// TestShardedRunCountsEvents checks that Run sums events across shards.
func TestShardedRunCountsEvents(t *testing.T) {
	ss := NewShardedSim(2, 0.01)
	defer ss.Close()
	ran := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		for k := 0; k < 5; k++ {
			ss.Shard(i).After(float64(k)*0.005, func() { ran[i]++ })
		}
	}
	if n := ss.Run(1); n != 10 {
		t.Fatalf("Run reported %d events, want 10", n)
	}
	if ran[0] != 5 || ran[1] != 5 {
		t.Fatalf("per-shard runs %v, want 5 each", ran)
	}
}

// TestAtBarrierOrdering checks the control lane: callbacks run in
// (time, schedule order), and Cancel suppresses them, also from a
// control due at the same instant.
func TestAtBarrierOrdering(t *testing.T) {
	ss := NewShardedSim(2, 0.002)
	defer ss.Close()
	var order []string
	ss.AtBarrier(0.003, func() { order = append(order, "b") })
	ss.AtBarrier(0.003, func() { order = append(order, "c") })
	ss.AtBarrier(0, func() { order = append(order, "a") })
	ev := ss.AtBarrier(0.005, func() { order = append(order, "x") })
	ev.Cancel()
	// A control may cancel another due at the same instant.
	var victim *Timer
	ss.AtBarrier(0.004, func() { victim.Cancel() })
	victim = ss.AtBarrier(0.004, func() { order = append(order, "y") })
	// Control callbacks may schedule more control callbacks.
	ss.AtBarrier(0.001, func() {
		ss.AtBarrier(0.006, func() { order = append(order, "d") })
	})
	ss.Run(0.01)
	want := "abcd"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("barrier order %q, want %q", got, want)
	}
}

// TestAtBarrierRunsAtItsTime checks a control callback due mid-epoch
// ends the epoch early and runs at exactly its time, with every shard
// clock reading that time.
func TestAtBarrierRunsAtItsTime(t *testing.T) {
	for _, p := range []int{1, 2} {
		ss := NewShardedSim(p, 0.002)
		defer ss.Close()
		at := -1.0
		ss.AtBarrier(0.0031, func() {
			at = ss.Now()
			for i := 0; i < ss.Shards(); i++ {
				if got := ss.Shard(i).Now(); got != 0.0031 {
					t.Errorf("shards=%d: shard %d clock %g at the control, want 0.0031", p, i, got)
				}
			}
		})
		ss.Run(0.01)
		if at != 0.0031 {
			t.Fatalf("shards=%d: control ran at %g, want 0.0031", p, at)
		}
	}
}

// TestShardedWorkersParkWhenIdle checks that an idle sharded sim burns
// no core: shortly after Run returns, every worker is parked on its
// wake channel rather than spinning.
func TestShardedWorkersParkWhenIdle(t *testing.T) {
	ss := NewShardedSim(2, 0.001)
	defer ss.Close()
	ss.Shard(1).After(0.0005, func() {})
	ss.Run(0.01)
	deadline := time.Now().Add(50 * time.Millisecond)
	for i, w := range ss.workers {
		for !w.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d still spinning 50 ms after Run returned", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A parked worker still picks up the next epoch.
	ran := false
	ss.Shard(1).After(0.0005, func() { ran = true })
	ss.Run(0.02)
	if !ran {
		t.Fatal("parked worker did not run the next epoch")
	}
}

// TestShardedCloseReleasesWorkers checks Close ends every worker
// goroutine, whether it is parked or still spinning.
func TestShardedCloseReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, idle := range []bool{false, true} {
		ss := NewShardedSim(4, 0.001)
		ss.Run(0.01)
		if idle {
			time.Sleep(20 * time.Millisecond) // let the workers park
		}
		ss.Close()
		ss.Close() // idempotent
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("idle=%v: %d goroutines after Close, want %d", idle, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestShardedConcurrentShards is the -race regression for the
// shard-ownership rule: two shard loops run genuinely concurrently
// through the coordinator, each hammering its own timers, DPC ring, and
// timer pool, with cross-shard work injected at every barrier. Any
// coordinator/worker handoff bug shows up as a data race here.
func TestShardedConcurrentShards(t *testing.T) {
	ss := NewShardedSim(2, 0.001)
	defer ss.Close()
	var fired [2]atomic.Int64
	// Self-perpetuating per-shard load: timers that defer, re-arm via
	// the pooled path, and cancel siblings.
	for i := 0; i < ss.Shards(); i++ {
		i := i
		s := ss.Shard(i)
		var tick func()
		tick = func() {
			fired[i].Add(1)
			s.Defer(func() { fired[i].Add(1) })
			victim := s.After(0.0004, func() { fired[i].Add(1) })
			victim.Cancel()
			s.AfterFree(0.0003, tick)
		}
		s.After(0, tick)
	}
	// Cross-shard traffic through the barrier lane: every epoch the
	// coordinator schedules one event onto each shard.
	ss.AddExchanger(exchangerFunc(func(now float64) {
		for i := 0; i < ss.Shards(); i++ {
			i := i
			ss.Shard(i).At(now+0.001, func() { fired[i].Add(1) })
		}
	}))
	ss.Run(0.5)
	for i := range fired {
		if fired[i].Load() == 0 {
			t.Fatalf("shard %d never fired", i)
		}
	}
}

// TestShardedDeterministicAcrossShardCounts runs the same toy workload
// under 1 and 3 shards — entities ticking on their own shards and
// messaging each other through per-shard outboxes merged canonically at
// barriers — and checks the per-entity event traces are identical. This
// is the eventloop-level shape of the guarantee simnet and the harness
// build on; simnet's sharded tests exercise it with real datagrams.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	run := func(p int) [][]float64 {
		const entities = 6
		const latency = 0.002 // >= lookahead, so barrier merge is sound
		ss := NewShardedSim(p, latency)
		defer ss.Close()
		// One trace slice per entity: entity e's slice is only ever
		// appended to from e's own shard (or the coordinator at
		// barriers), per the shard-ownership rule.
		got := make([][]float64, entities)
		shardOf := func(e int) *Sim { return ss.Shard(e % p) }
		outbox := make([][]testMsg, p)
		// Each entity ticks on its own cadence; every tick records the
		// instant and sends a message to the next entity, which records
		// the delivery instant too.
		for e := 0; e < entities; e++ {
			e := e
			s := shardOf(e)
			var tick func()
			tick = func() {
				got[e] = append(got[e], s.Now())
				outbox[e%p] = append(outbox[e%p], testMsg{at: s.Now() + latency, src: e, dst: (e + 1) % entities})
				s.AfterFree(0.0037+float64(e)*0.0001, tick)
			}
			s.After(float64(e)*0.0011, tick)
		}
		ss.AddExchanger(exchangerFunc(func(now float64) {
			var all []testMsg
			for i := range outbox {
				all = append(all, outbox[i]...)
				outbox[i] = outbox[i][:0]
			}
			// Canonical merge order: (timestamp, source entity).
			sort.Slice(all, func(i, j int) bool {
				if all[i].at != all[j].at {
					return all[i].at < all[j].at
				}
				return all[i].src < all[j].src
			})
			for _, m := range all {
				m := m
				shardOf(m.dst).At(m.at, func() {
					got[m.dst] = append(got[m.dst], m.at)
				})
			}
		}))
		ss.Run(0.2)
		return got
	}
	a, b := run(1), run(3)
	for e := range a {
		if len(a[e]) != len(b[e]) {
			t.Fatalf("entity %d fired %d vs %d times", e, len(a[e]), len(b[e]))
		}
		for i := range a[e] {
			if a[e][i] != b[e][i] {
				t.Fatalf("entity %d event %d at %g vs %g", e, i, a[e][i], b[e][i])
			}
		}
	}
}

// testMsg is one cross-entity message in the determinism test.
type testMsg struct {
	at       float64
	src, dst int
}
