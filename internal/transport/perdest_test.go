package transport

import (
	"fmt"
	"slices"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/simnet"
)

// TestPerDestAccounting verifies the per-peer counters behind the
// sysNet introspection relation: records, datagrams, bytes, and control
// state on the sender side; post-dedup deliveries on the receiver side.
func TestPerDestAccounting(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	for i := int64(0); i < 5; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(10)
	if len(r.got) != 5 {
		t.Fatalf("delivered %d", len(r.got))
	}

	aStats := r.a.PerDest()
	if len(aStats) != 1 || aStats[0].Addr != "b" {
		t.Fatalf("a.PerDest() = %v", aStats)
	}
	st := aStats[0]
	if st.Sent != 5 || st.Retries != 0 {
		t.Fatalf("a->b send accounting: %+v", st)
	}
	if st.BatchFill != 5 {
		t.Fatalf("a->b: one burst should be one datagram of 5 records: %+v", st)
	}
	if st.Bytes <= 5*int64(tp(0).EncodedSize()) {
		t.Fatalf("a->b bytes = %d, want > payload-only", st.Bytes)
	}
	if st.Cwnd <= DefaultConfig().WindowInit {
		t.Fatalf("window did not grow after an acked frame: %+v", st)
	}
	if st.RTO != DefaultConfig().MinRTO {
		t.Fatalf("rto not adapted: %+v", st)
	}
	if st.Backlog != 0 {
		t.Fatalf("backlog should be empty when idle: %+v", st)
	}
	bStats := r.b.PerDest()
	if len(bStats) != 1 || bStats[0].Addr != "a" || bStats[0].Recvd != 5 {
		t.Fatalf("b.PerDest() = %v", bStats)
	}
}

func TestPerDestCountsRetries(t *testing.T) {
	cfg := DefaultConfig()
	// The accounting is inspected long after the stream quiesces; keep
	// the flow janitor from reclaiming it first.
	cfg.FlowIdleTTL = -1
	r := newRig(t, 0.4, cfg)
	r.sendSpread("b", 20, 0.1)
	r.loop.Run(120)
	if len(r.got) == 0 {
		t.Fatal("nothing delivered under loss")
	}
	st := r.a.PerDest()
	if len(st) != 1 || st[0].Retries == 0 {
		t.Fatalf("expected retries under 40%% loss: %v", st)
	}
	if st[0].Sent < 20 {
		t.Fatalf("sent %d < 20 submissions", st[0].Sent)
	}
}

// TestPerDestGolden pins what PerDest reports through a scripted life
// of three peers around one transport: a bursts toward b and c (c
// behind a partition that heals, so its flow retransmits), d only ever
// sends to a, everything idles past the TTLs, b and d resume, a closes.
// The rows of the first five instants are the ones the seven-map
// transport reported at PR 19; a closed transport reports nothing.
func TestPerDestGolden(t *testing.T) {
	loop := eventloop.NewSim()
	scfg := simnet.DefaultConfig()
	scfg.Domains = 1
	net := simnet.New(loop, scfg)
	cfg := DefaultConfig()
	cfg.FlowIdleTTL = 10
	cfg.MaxRTO, cfg.MaxRetries = 1, 2 // receive half lives max(2·10, 1·4) = 20 s
	cfg.WindowInit = 2                // the burst toward b outruns it: a backlog to report
	trs := map[string]*Transport{}
	for _, addr := range []string{"a", "b", "c", "d"} {
		ep, err := net.Attach(addr, func(from string, p []byte) { trs[addr].Deliver(from, p) })
		if err != nil {
			t.Fatal(err)
		}
		trs[addr] = New(loop, ep, cfg)
	}
	a := trs["a"]
	check := func(instant string, want ...string) {
		t.Helper()
		var got []string
		for _, d := range a.PerDest() {
			got = append(got, fmt.Sprintf("%+v", d))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s (t=%v): PerDest reports\n%q\nwant\n%q", instant, loop.Now(), got, want)
		}
	}

	net.Partition("a", "c", true)
	for i := int64(0); i < 500; i++ {
		a.Send("b", tp(i))
	}
	for i := int64(0); i < 10; i++ {
		a.Send("c", tp(i))
	}
	for i := int64(0); i < 5; i++ {
		trs["d"].Send("a", tp(i))
	}
	loop.RunFor(0)
	check("burst flushed",
		"{Addr:b Sent:323 Recvd:0 Bytes:2865 Retries:0 Cwnd:2 RTO:1 Backlog:177 BatchFill:161.5 Drops:[0 0 0 0]}",
		"{Addr:c Sent:10 Recvd:0 Bytes:89 Retries:0 Cwnd:2 RTO:1 Backlog:0 BatchFill:10 Drops:[0 0 0 0]}",
	)

	loop.At(0.5, func() { net.Partition("a", "c", false) })
	loop.Run(3)
	check("settled",
		"{Addr:b Sent:500 Recvd:0 Bytes:4480 Retries:0 Cwnd:6 RTO:0.2 Backlog:0 BatchFill:125 Drops:[0 0 0 0]}",
		"{Addr:c Sent:20 Recvd:0 Bytes:178 Retries:10 Cwnd:2 RTO:1 Backlog:0 BatchFill:10 Drops:[0 0 0 0]}",
		"{Addr:d Sent:0 Recvd:5 Bytes:0 Retries:0 Cwnd:2 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}",
	)

	loop.Run(16)
	check("idle past the send TTL",
		"{Addr:d Sent:0 Recvd:5 Bytes:0 Retries:0 Cwnd:2 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}",
	)

	for i := int64(0); i < 3; i++ {
		a.Send("b", tp(i))
	}
	loop.Run(17)
	check("b resumed",
		"{Addr:b Sent:3 Recvd:0 Bytes:33 Retries:0 Cwnd:3 RTO:0.2 Backlog:0 BatchFill:3 Drops:[0 0 0 0]}",
		"{Addr:d Sent:0 Recvd:5 Bytes:0 Retries:0 Cwnd:2 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}",
	)
	if got := flowEpoch(a, "b"); got != 1 {
		t.Errorf("resumed flow toward b carries wire epoch %d, want 1", got)
	}

	loop.Run(44)
	net.Partition("a", "c", true)
	a.Send("c", tp(0))
	trs["d"].Send("a", tp(0))
	loop.Run(50)
	check("idle past every TTL, then c and d resumed",
		"{Addr:c Sent:3 Recvd:0 Bytes:51 Retries:2 Cwnd:1 RTO:1 Backlog:0 BatchFill:1 Drops:[1 0 0 0]}",
		"{Addr:d Sent:0 Recvd:1 Bytes:0 Retries:0 Cwnd:2 RTO:1 Backlog:0 BatchFill:0 Drops:[0 0 0 0]}",
	)

	a.Close()
	check("closed")
}
