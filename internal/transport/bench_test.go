package transport

// The transport's own micro-benchmarks, runnable with plain go test:
//
//	go test -run '^$' -bench . -benchtime 200x ./internal/transport/
//
// and the allocation pin on the reliable cycle, which go test runs.

import (
	"fmt"
	"runtime"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/simnet"
	"p2/internal/tuple"
)

// cycleAllocs is how many times one send → frame → deliver → delayed
// ack → clear cycle between two transports allocates, simnet and the
// event loop included: the ceiling TestCycleAllocs holds the chain to.
// The nine are the data frame, simnet's copy of it, the wire batch, the
// queue's backing array, the delayed-ack timer, the bare ack frame and
// its copy, and the decoded tuple with its field slice.
const cycleAllocs = 9

// roundTripAllocs is the ceiling TestRoundTripAllocs holds
// BenchmarkRoundTrip's allocations per delivered tuple to.
const roundTripAllocs = 6

// cycle returns a function that sends one tuple from a to b and runs
// the loop until its acknowledgment has cleared the ledger.
func cycle(tb testing.TB) func() {
	r := newRig(tb, 0, DefaultConfig())
	msg := tp(1)
	return func() {
		r.a.Send("b", msg)
		r.loop.RunFor(0.1)
		if r.a.InFlight("b") != 0 {
			tb.Fatal("the cycle did not complete")
		}
	}
}

func TestCycleAllocs(t *testing.T) {
	f := cycle(t)
	f() // the first cycle builds both peers' records
	if got := testing.AllocsPerRun(200, f); got > cycleAllocs {
		t.Fatalf("one reliable cycle allocates %v times, want at most %d", got, cycleAllocs)
	}
}

func BenchmarkSendReceive(b *testing.B) {
	f := cycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

// roundTrip builds one transport exchanging steady bidirectional
// traffic with 32 peer transports on one virtual loop: every 10 ms (half
// the ack delay, so acks ride the next round's data frames) the hub
// sends each peer a tuple and each peer sends the hub one. It returns
// a function that runs one round, the hub, and the count of tuples delivered
// (at the hub and at the peers).
func roundTrip(tb testing.TB) (round func(), hub *Transport, delivered *int) {
	const fanout = 32
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.Domains = 1
	net := simnet.New(loop, scfg)
	delivered = new(int)
	mk := func(addr string) *Transport {
		var tr *Transport
		ep, err := net.Attach(addr, func(from string, p []byte) { tr.Deliver(from, p) })
		if err != nil {
			tb.Fatal(err)
		}
		tr = New(loop, ep, DefaultConfig())
		tr.OnReceive(func(string, *tuple.Tuple) { *delivered++ })
		return tr
	}
	hub = mk("hub")
	addrs := make([]string, fanout)
	peers := make([]*Transport, fanout)
	for i := range peers {
		addrs[i] = fmt.Sprintf("p%02d", i)
		peers[i] = mk(addrs[i])
	}
	msg := tp(1)
	round = func() {
		for i, p := range peers {
			hub.Send(addrs[i], msg)
			p.Send("hub", msg)
		}
		loop.RunFor(0.01)
	}
	for range 100 {
		round() // open the windows, settle the RTT estimates
	}
	*delivered = 0
	return round, hub, delivered
}

// TestRoundTripAllocs pins the steady exchange BenchmarkRoundTrip
// measures at roundTripAllocs allocations per delivered tuple. It counts
// with testing.AllocsPerRun, which runs on one P and reports whole
// allocations per round, so an allocation by another goroutine of the
// test process (the runtime's, the testing package's) does not land on
// the exchange's count as it does in a whole-process MemStats delta.
func TestRoundTripAllocs(t *testing.T) {
	const runs, perRound = 50, 64 // a round: the hub sends each of 32 peers a tuple, each sends one back
	round, _, delivered := roundTrip(t)
	perTuple := testing.AllocsPerRun(runs, round) / perRound
	if want := (runs + 1) * perRound; *delivered != want { // AllocsPerRun adds one warm-up round
		t.Fatalf("%d rounds delivered %d tuples, want %d", runs+1, *delivered, want)
	}
	t.Logf("%.2f allocations per delivered tuple", perTuple)
	if perTuple > roundTripAllocs {
		t.Fatalf("the steady exchange allocates %.2f times per delivered tuple, want at most %d", perTuple, roundTripAllocs)
	}
}

// BenchmarkRoundTrip reports wall time and allocations per delivered
// tuple of roundTrip's exchange, all 33 transports, simnet and the loop
// included.
func BenchmarkRoundTrip(b *testing.B) {
	round, hub, delivered := roundTrip(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if st := hub.Stats(); *delivered < 32*b.N || st.Retransmits != 0 || st.AcksPiggybacked == 0 {
		b.Fatalf("not the steady exchange the benchmark describes: %d delivered in %d rounds, %+v", *delivered, b.N, st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(*delivered), "ns/tuple")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(*delivered), "allocs/tuple")
}
