package dataflow

import (
	"testing"

	"p2/internal/eventloop"
	"p2/internal/tuple"
	"p2/internal/val"
)

func tp(name string, vs ...val.Value) *tuple.Tuple { return tuple.New(name, vs...) }

func TestPeriodicEmitsOnSchedule(t *testing.T) {
	loop := eventloop.NewSim()
	var fired []float64
	p := NewPeriodic(loop, 2.0, 3, func() { fired = append(fired, loop.Now()) })
	p.Start(0.5)
	loop.Run(20)
	if len(fired) != 3 {
		t.Fatalf("fired %v", fired)
	}
	want := []float64{0.5, 2.5, 4.5}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestPeriodicUnlimitedAndStop(t *testing.T) {
	loop := eventloop.NewSim()
	n := 0
	p := NewPeriodic(loop, 1.0, 0, func() { n++ }) // 0 = unlimited
	p.Start(0)
	loop.Run(10.5)
	if n != 11 {
		t.Fatalf("n = %d, want 11", n)
	}
	p.Stop()
	loop.Run(20)
	if n != 11 {
		t.Fatalf("stop failed, n = %d", n)
	}
}

func TestPeriodicOneShot(t *testing.T) {
	// periodic(X, E, 0, 1): fire exactly once, immediately — the idiom
	// Narada uses for initialization facts.
	loop := eventloop.NewSim()
	n := 0
	p := NewPeriodic(loop, 0, 1, func() { n++ })
	p.Start(0)
	loop.Run(5)
	if n != 1 {
		t.Fatalf("one-shot fired %d times", n)
	}
}

func TestUnconnectedPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unconnected port")
		}
	}()
	NewMultiAssign(nil).Push(new(Ctx), tp("x"))
}
