package netif

import (
	"testing"
)

// memNet is a trivial in-process Network: sends deliver synchronously.
type memNet struct {
	eps map[string]*memEndpoint
}

type memEndpoint struct {
	net     *memNet
	addr    string
	deliver DeliverFunc
	closed  bool
}

func newMemNet() *memNet { return &memNet{eps: make(map[string]*memEndpoint)} }

func (m *memNet) Attach(addr string, deliver DeliverFunc) (Endpoint, error) {
	ep := &memEndpoint{net: m, addr: addr, deliver: deliver}
	m.eps[addr] = ep
	return ep, nil
}

func (e *memEndpoint) Send(to string, payload []byte) {
	if dst, ok := e.net.eps[to]; ok && !dst.closed {
		p := append([]byte(nil), payload...)
		dst.deliver(e.addr, p)
	}
}
func (e *memEndpoint) LocalAddr() string { return e.addr }
func (e *memEndpoint) Close()            { e.closed = true }

func attachPair(t *testing.T, net Network) (Endpoint, *[][]byte) {
	t.Helper()
	var got [][]byte
	if _, err := net.Attach("b", func(from string, p []byte) { got = append(got, p) }); err != nil {
		t.Fatal(err)
	}
	a, err := net.Attach("a", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	return a, &got
}

func TestFaultPlanePartition(t *testing.T) {
	plane := NewFaultPlane(FaultConfig{Seed: 1})
	a, got := attachPair(t, WithFaults(newMemNet(), plane, nil))

	a.Send("b", []byte{1})
	plane.Partition("a", "b", true)
	a.Send("b", []byte{2})
	a.Send("b", []byte{3})
	plane.Partition("a", "b", false)
	a.Send("b", []byte{4})

	if len(*got) != 2 || (*got)[0][0] != 1 || (*got)[1][0] != 4 {
		t.Fatalf("partition not enforced: got %v", *got)
	}
	if plane.Stats().Cut != 2 {
		t.Fatalf("cut counter = %d, want 2", plane.Stats().Cut)
	}
}

func TestFaultDropAndDupRates(t *testing.T) {
	plane := NewFaultPlane(FaultConfig{Seed: 7, DropRate: 0.5})
	a, got := attachPair(t, WithFaults(newMemNet(), plane, nil))
	const n = 1000
	for i := 0; i < n; i++ {
		a.Send("b", []byte{byte(i)})
	}
	st := plane.Stats()
	if st.Dropped == 0 || len(*got)+int(st.Dropped) != n {
		t.Fatalf("drops unaccounted: delivered=%d dropped=%d", len(*got), st.Dropped)
	}
	if len(*got) < n/3 || len(*got) > 2*n/3 {
		t.Fatalf("0.5 drop rate delivered %d of %d", len(*got), n)
	}

	plane.SetDropRate(0)
	plane2 := NewFaultPlane(FaultConfig{Seed: 7, DupRate: 1})
	a2, got2 := attachPair(t, WithFaults(newMemNet(), plane2, nil))
	a2.Send("b", []byte{9})
	if len(*got2) != 2 {
		t.Fatalf("DupRate=1 delivered %d copies, want 2", len(*got2))
	}
}

func TestFaultCorruptCopiesPayload(t *testing.T) {
	plane := NewFaultPlane(FaultConfig{Seed: 3, CorruptRate: 1})
	a, got := attachPair(t, WithFaults(newMemNet(), plane, nil))
	orig := []byte{10, 20, 30, 40}
	keep := append([]byte(nil), orig...)
	a.Send("b", orig)
	if len(*got) != 1 {
		t.Fatalf("delivered %d", len(*got))
	}
	same := true
	for i, b := range (*got)[0] {
		if b != keep[i] {
			same = false
		}
	}
	if same {
		t.Fatal("CorruptRate=1 delivered an unmodified payload")
	}
	for i, b := range orig {
		if b != keep[i] {
			t.Fatal("corruption mutated the caller's buffer")
		}
	}
}

func TestFaultReorderDelaysViaScheduler(t *testing.T) {
	plane := NewFaultPlane(FaultConfig{Seed: 5, ReorderRate: 1})
	var held []func()
	delay := func(d float64, fn func()) {
		if d != reorderDelay {
			t.Fatalf("delay %v, want %v", d, reorderDelay)
		}
		held = append(held, fn)
	}
	a, got := attachPair(t, WithFaults(newMemNet(), plane, delay))
	a.Send("b", []byte{1})
	if len(*got) != 0 {
		t.Fatal("reordered datagram shipped immediately")
	}
	if len(held) != 1 {
		t.Fatalf("scheduler held %d datagrams", len(held))
	}
	held[0]()
	if len(*got) != 1 || (*got)[0][0] != 1 {
		t.Fatalf("held datagram lost: %v", *got)
	}
	if plane.Stats().Reordered != 1 {
		t.Fatalf("stats: %+v", plane.Stats())
	}
}

// TestFaultStreamsAreSeeded: two planes with the same seed judge the
// same send sequence identically; a different seed diverges.
func TestFaultStreamsAreSeeded(t *testing.T) {
	run := func(seed int64) []int {
		plane := NewFaultPlane(FaultConfig{Seed: seed, DropRate: 0.5})
		a, got := attachPair(t, WithFaults(newMemNet(), plane, nil))
		var pattern []int
		for i := 0; i < 100; i++ {
			before := len(*got)
			a.Send("b", []byte{byte(i)})
			if len(*got) > before {
				pattern = append(pattern, i)
			}
		}
		return pattern
	}
	a1, a2, b1 := run(42), run(42), run(43)
	if len(a1) != len(a2) {
		t.Fatalf("same seed diverged: %d vs %d deliveries", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if len(b1) == len(a1) {
		same := true
		for i := range b1 {
			if b1[i] != a1[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault patterns")
		}
	}
}
