package simnet

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
)

// shardedNet builds a sharded net with P shards plus one endpoint per
// address, each address's receive trace recorded shard-locally.
func shardedNet(t *testing.T, p int, cfg Config, addrs []string) (*eventloop.ShardedSim, *Net, map[string]interface {
	Send(to string, payload []byte)
}, map[string]*[]string) {
	t.Helper()
	ss := eventloop.NewShardedSim(p, cfg.Lookahead())
	t.Cleanup(ss.Close)
	n := NewSharded(ss, cfg)
	eps := make(map[string]interface {
		Send(to string, payload []byte)
	})
	traces := make(map[string]*[]string)
	for _, a := range addrs {
		a := a
		tr := &[]string{}
		traces[a] = tr
		loop := n.ShardLoop(a)
		ep, err := n.Attach(a, func(from string, payload []byte) {
			*tr = append(*tr, fmt.Sprintf("%.9f %s %s", loop.Now(), from, payload))
		})
		if err != nil {
			t.Fatal(err)
		}
		eps[a] = ep
	}
	return ss, n, eps, traces
}

// TestShardedMatchesSingleShard is the package's core guarantee: the
// same seeded workload, run across 1 shard and across 4, produces
// bit-identical per-node delivery traces and byte counters — on the
// uniform model and on a transit-stub WAN where some domains share a
// shard, so intra-domain datagrams (delivered directly) and
// cross-domain ones (merged at barriers) meet on the same loops.
func TestShardedMatchesSingleShard(t *testing.T) {
	wan := TransitStubWAN(2, 3, 7)
	wan.LossRate = 0.2
	uniform := DefaultConfig()
	uniform.LossRate = 0.2 // exercise the per-node loss streams too
	for name, cfg := range map[string]Config{"uniform": uniform, "wan": wan} {
		t.Run(name, func(t *testing.T) { checkShardedMatchesSingleShard(t, cfg) })
	}
}

func checkShardedMatchesSingleShard(t *testing.T, cfg Config) {
	var addrs []string
	for i := 0; i < 12; i++ {
		addrs = append(addrs, fmt.Sprintf("n%d:p2", i))
	}
	run := func(p int) (map[string][]string, Stats) {
		ss, n, eps, traces := shardedNet(t, p, cfg, addrs)
		// Every node streams datagrams to two neighbors on its own
		// cadence; sends originate on the owning shard, as the
		// shard-ownership rule requires.
		for i, a := range addrs {
			i, a := i, a
			loop := n.ShardLoop(a)
			for k := 0; k < 40; k++ {
				k := k
				loop.At(float64(k)*0.017+float64(i)*0.003, func() {
					eps[a].Send(addrs[(i+1)%len(addrs)], []byte(fmt.Sprintf("m%d", k)))
					eps[a].Send(addrs[(i+5)%len(addrs)], []byte(fmt.Sprintf("x%d", k)))
				})
			}
		}
		ss.Run(3)
		got := make(map[string][]string)
		for a, tr := range traces {
			got[a] = *tr
		}
		return got, n.TotalStats()
	}
	// The workload must mix both send paths to test anything.
	probe := newNet(cfg)
	intra := 0
	for i, a := range addrs {
		for _, d := range []int{1, 5} {
			if probe.DomainOf(a) == probe.DomainOf(addrs[(i+d)%len(addrs)]) {
				intra++
			}
		}
	}
	if intra == 0 || intra == 2*len(addrs) {
		t.Fatalf("%d of %d neighbor pairs are intra-domain; want a mix", intra, 2*len(addrs))
	}
	t1, s1 := run(1)
	t4, s4 := run(4)
	if s1 != s4 {
		t.Fatalf("stats diverge:\n 1 shard: %+v\n 4 shards: %+v", s1, s4)
	}
	for a := range t1 {
		if len(t1[a]) != len(t4[a]) {
			t.Fatalf("%s: %d vs %d deliveries", a, len(t1[a]), len(t4[a]))
		}
		for i := range t1[a] {
			if t1[a][i] != t4[a][i] {
				t.Fatalf("%s delivery %d: %q vs %q", a, i, t1[a][i], t4[a][i])
			}
		}
	}
}

// TestShardedDeliveryCrossesBarrier checks a datagram between nodes on
// different shards arrives at exactly the modeled latency — staging at
// the barrier must not add delay.
func TestShardedDeliveryCrossesBarrier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StubBps = 0 // no serialization delay: arrival == send + latency
	// Find two addrs on different shards under 2 shards.
	probeSS := eventloop.NewShardedSim(2, cfg.Lookahead())
	defer probeSS.Close()
	probe := NewSharded(probeSS, cfg)
	a, b := "", ""
	for i := 0; i < 64 && b == ""; i++ {
		addr := fmt.Sprintf("p%d", i)
		if a == "" {
			a = addr
		} else if probe.ShardOf(addr) != probe.ShardOf(a) {
			b = addr
		}
	}
	if b == "" {
		t.Fatal("no cross-shard pair found")
	}
	ss, n, eps, traces := shardedNet(t, 2, cfg, []string{a, b})
	want := n.Latency(a, b)
	n.ShardLoop(a).At(0.0005, func() { eps[a].Send(b, []byte("hi")) })
	ss.Run(1)
	got := *traces[b]
	if len(got) != 1 {
		t.Fatalf("deliveries: %v", got)
	}
	var at float64
	var from, payload string
	fmt.Sscanf(got[0], "%f %s %s", &at, &from, &payload)
	if diff := at - (0.0005 + want); diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("arrived at %.9f, want %.9f", at, 0.0005+want)
	}
}

// TestShardedKillAtBarrier checks coordinator-side kills: datagrams in
// flight toward the victim are counted lost at the destination, and
// totals stay consistent.
func TestShardedKillAtBarrier(t *testing.T) {
	cfg := DefaultConfig()
	addrs := []string{"a:1", "b:2"}
	ss, n, eps, traces := shardedNet(t, 2, cfg, addrs)
	n.ShardLoop("a:1").At(0.001, func() { eps["a:1"].Send("b:2", []byte("doomed")) })
	ss.RunFor(0.002) // send happens; delivery still in flight
	n.Kill("b:2")
	ss.RunFor(1)
	if got := *traces["b:2"]; len(got) != 0 {
		t.Fatalf("dead node received %v", got)
	}
	st := n.TotalStats()
	if st.PacketsSent != 1 || st.PacketsLost != 1 || st.PacketsRecv != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPerNodeLossStreams pins the satellite fix: a node's loss outcomes
// derive from (Seed, addr) alone, so they are identical whether or not
// another node's sends interleave with its own.
func TestPerNodeLossStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Domains = 1
	cfg.LossRate = 0.5
	run := func(withNoise bool) []string {
		loop := eventloop.NewSim()
		n := New(loop, cfg)
		var got []string
		n.Attach("a", func(string, []byte) {})
		n.Attach("b", func(from string, p []byte) {
			if from == "a" {
				got = append(got, string(p))
			}
		})
		n.Attach("c", func(string, []byte) {})
		epA, epC := &endpoint{net: n, node: n.lookup("a")}, &endpoint{net: n, node: n.lookup("c")}
		for i := 0; i < 60; i++ {
			i := i
			loop.At(float64(i)*0.01, func() {
				if withNoise {
					// Interleaved traffic from another sender must not
					// perturb a's own loss pattern.
					epC.Send("b", []byte("noise"))
				}
				epA.Send("b", []byte{byte(i)})
			})
		}
		loop.Run(5)
		return got
	}
	quiet, noisy := run(false), run(true)
	if len(quiet) != len(noisy) {
		t.Fatalf("a's delivery count changed with unrelated traffic: %d vs %d", len(quiet), len(noisy))
	}
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("a's delivery %d changed with unrelated traffic", i)
		}
	}
}
