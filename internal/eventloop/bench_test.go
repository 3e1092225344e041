package eventloop

import (
	"testing"
)

// The deferred-procedure-call lane is hit on every strand trigger; the
// pinned budget is zero allocations beyond the queued ring entry
// (amortized ring growth). Timer scheduling through the pooled
// fire-and-forget path must likewise reach steady-state zero.

// TestSimDeferZeroAlloc pins Defer + drain at zero allocations once the
// ring has grown to the workload's high-water mark.
func TestSimDeferZeroAlloc(t *testing.T) {
	s := NewSim()
	fn := func() {}
	// Pre-grow the ring.
	for i := 0; i < 64; i++ {
		s.Defer(fn)
	}
	s.RunFor(0)
	allocs := testing.AllocsPerRun(200, func() {
		s.Defer(fn)
		s.Defer(fn)
		if s.RunFor(0) != 2 {
			t.Fatal("deferred fns did not run")
		}
	})
	if allocs != 0 {
		t.Fatalf("Defer allocated %.1f/op, want 0", allocs)
	}
}

// TestSimAfterFreeSteadyStateZeroAlloc pins the pooled timer path: a
// periodic-style schedule/fire cycle must reuse Timer structs.
func TestSimAfterFreeSteadyStateZeroAlloc(t *testing.T) {
	s := NewSim()
	fn := func() {}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		s.AfterFree(0.1, fn)
	}
	s.RunFor(1)
	allocs := testing.AllocsPerRun(200, func() {
		s.AfterFree(0.1, fn)
		s.RunFor(1)
	})
	if allocs != 0 {
		t.Fatalf("AfterFree steady state allocated %.1f/op, want 0", allocs)
	}
}

// TestSimAtFreeSteadyStateZeroAlloc pins the absolute-time twin of
// AfterFree — the simulated network's per-datagram schedule — at zero
// allocations once the pool is warm.
func TestSimAtFreeSteadyStateZeroAlloc(t *testing.T) {
	s := NewSim()
	fn := func() {}
	for i := 0; i < 8; i++ {
		s.AtFree(s.Now()+0.1, fn)
	}
	s.RunFor(1)
	allocs := testing.AllocsPerRun(200, func() {
		s.AtFree(s.Now()+0.1, fn)
		s.RunFor(1)
	})
	if allocs != 0 {
		t.Fatalf("AtFree steady state allocated %.1f/op, want 0", allocs)
	}
}

// TestSimPendingConstantTime covers the live-timer gauge: canceled
// timers must leave the count the moment Cancel runs, without waiting
// to be popped, and DPC entries count until drained.
func TestSimPendingConstantTime(t *testing.T) {
	s := NewSim()
	var tms []*Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, s.After(float64(i)+1, func() {}))
	}
	if got := s.Pending(); got != 100 {
		t.Fatalf("pending = %d, want 100", got)
	}
	for _, tm := range tms[:60] {
		tm.Cancel()
	}
	if got := s.Pending(); got != 40 {
		t.Fatalf("pending after cancel = %d, want 40", got)
	}
	s.Defer(func() {})
	if got := s.Pending(); got != 41 {
		t.Fatalf("pending with DPC = %d, want 41", got)
	}
	s.RunFor(200)
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// TestSimDeferOrderedAgainstAtNow verifies deterministic interleaving
// across the two lanes: Defer and At(now) fire in scheduling order.
func TestSimDeferOrderedAgainstAtNow(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(0, func() {
		s.Defer(func() { got = append(got, 1) })
		s.At(s.Now(), func() { got = append(got, 2) })
		s.Defer(func() { got = append(got, 3) })
	})
	s.RunFor(0)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestSimCancelFreeRecycles covers the release contract: a canceled-
// and-freed timer's struct returns to the pool once popped, and the
// cancellation still holds.
func TestSimCancelFreeRecycles(t *testing.T) {
	s := NewSim()
	fired := false
	tm := s.After(1, func() { fired = true })
	tm.CancelFree()
	s.RunFor(2)
	if fired {
		t.Fatal("canceled timer fired")
	}
	if len(s.pool) == 0 {
		t.Fatal("freed timer was not recycled")
	}
}

func BenchmarkSimDefer(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Defer(fn)
		s.RunFor(0)
	}
}

func BenchmarkSimTimerChurn(b *testing.B) {
	s := NewSim()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFree(0.001, fn)
		s.RunFor(0.002)
	}
}

func BenchmarkSimCancelHeavy(b *testing.B) {
	// The retransmit pattern: arm, cancel, re-arm. Pending must stay
	// O(1) regardless of how many canceled timers linger in the heap.
	s := NewSim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(1000, func() {})
		tm.CancelFree()
		if s.Pending() != 0 {
			b.Fatal("canceled timer still pending")
		}
		if i%1024 == 0 {
			s.RunFor(0) // let the heap drain tombstones occasionally
		}
	}
}

// BenchmarkShardedEpoch measures one epoch of a two-shard sim with a
// few timer events per shard: the coordinator/worker handoff, the
// barrier and the cache traffic of two shards running on two cores.
func BenchmarkShardedEpoch(b *testing.B) {
	const epoch, perEpoch = 0.001, 4
	ss := NewShardedSim(2, epoch)
	defer ss.Close()
	for i := 0; i < ss.Shards(); i++ {
		s := ss.Shard(i)
		var tick func()
		tick = func() { s.AfterFree(epoch/perEpoch, tick) }
		for k := 0; k < perEpoch; k++ {
			s.AfterFree(float64(k)*epoch/perEpoch, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.RunFor(epoch)
	}
}
