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
	mk := func(addr string, seq int64, period float64) *tuple.Tuple {
		return tp("periodic", val.Str(addr), val.Str("e"), val.Float(period))
	}
	p := NewPeriodic(loop, "n1", 2.0, 3, mk)
	p.Connect(NewSink(func(*tuple.Tuple) { fired = append(fired, loop.Now()) }))
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
	mk := func(addr string, seq int64, period float64) *tuple.Tuple { return tp("periodic") }
	p := NewPeriodic(loop, "n1", 1.0, 0, mk) // 0 = unlimited
	p.Connect(NewSink(func(*tuple.Tuple) { n++ }))
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
	mk := func(addr string, seq int64, period float64) *tuple.Tuple { return tp("periodic") }
	p := NewPeriodic(loop, "n1", 0, 1, mk)
	p.Connect(NewSink(func(*tuple.Tuple) { n++ }))
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
	NewMultiAssign(nil, nil, new(Scratch)).Push(tp("x"))
}
