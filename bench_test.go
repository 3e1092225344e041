package p2_test

// Benchmarks regenerating the paper's evaluation (§5), one per figure
// or quantified claim. These wrap the generators in
// internal/experiments at smoke scale so `go test -bench=.` finishes in
// minutes; cmd/p2sim runs the same code at the published scale
// (100-500 node static rings, 400-node 20-minute churn). Throughput,
// latency and heap per commit are not measured here: that is
// `go run ./bench` (BENCHMARK.json), which CI compares against the
// parent commit.
//
// Figure-shaped results are emitted as custom benchmark metrics
// (hops/lookup, B/s/node, consistency) rather than ns/op, which is
// meaningless for a virtual-time simulation.

import (
	"fmt"
	"math/rand"
	"testing"

	"p2"
	"p2/internal/chordref"
	"p2/internal/eventloop"
	"p2/internal/experiments"
	"p2/internal/harness"
	"p2/internal/id"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/val"
)

// staticRing builds a converged P2 Chord ring for lookup benchmarks.
func staticRing(b *testing.B, n int) *harness.Chord {
	b.Helper()
	h := harness.NewChord(harness.Opts{N: n, Seed: 1, JoinSpacing: 0.5})
	h.Run(float64(n)*0.5 + 200)
	if rc := h.RingCorrectness(); rc < 0.9 {
		b.Fatalf("ring correctness %.2f", rc)
	}
	return h
}

// BenchmarkFig3iHopCount reproduces Figure 3(i): mean lookup hop count
// on a static ring, expected ≈ log2(N)/2.
func BenchmarkFig3iHopCount(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			h := staticRing(b, n)
			b.ResetTimer()
			totalHops, done := 0, 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < 20; j++ {
					lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
					h.Run(10)
					if lr.Done {
						totalHops += lr.Hops
						done++
					}
				}
			}
			if done > 0 {
				b.ReportMetric(float64(totalHops)/float64(done), "hops/lookup")
			}
		})
	}
}

// BenchmarkFig3iiMaintenanceBW reproduces Figure 3(ii): idle
// maintenance bandwidth per node, expected well under 1 kB/s.
func BenchmarkFig3iiMaintenanceBW(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			h := staticRing(b, n)
			b.ResetTimer()
			var bps float64
			for i := 0; i < b.N; i++ {
				h.ResetTraffic()
				h.Run(30)
				_, maint := h.TrafficBytes()
				bps = float64(maint) / float64(n) / 30
			}
			b.ReportMetric(bps, "B/s/node")
		})
	}
}

// BenchmarkFig3iiiLatency reproduces Figure 3(iii): lookup latency
// distribution on the transit-stub topology.
func BenchmarkFig3iiiLatency(b *testing.B) {
	h := staticRing(b, 32)
	b.ResetTimer()
	var lats []float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < 20; j++ {
			lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
			h.Run(10)
			if lr.Done {
				lats = append(lats, lr.Latency())
			}
		}
	}
	cdf := experiments.NewCDF(lats)
	b.ReportMetric(cdf.Percentile(0.5)*1000, "p50-ms")
	b.ReportMetric(cdf.Percentile(0.96)*1000, "p96-ms")
}

// BenchmarkFig4iChurnBW reproduces Figure 4(i): maintenance bandwidth
// under churn.
func BenchmarkFig4iChurnBW(b *testing.B) {
	h := staticRing(b, 24)
	b.ResetTimer()
	var bps float64
	for i := 0; i < b.N; i++ {
		h.StartChurn(8 * 60)
		h.ResetTraffic()
		h.Run(120)
		h.StopChurn()
		_, maint := h.TrafficBytes()
		bps = float64(maint) / 24 / 120
	}
	b.ReportMetric(bps, "B/s/node")
}

// BenchmarkFig4iiConsistency reproduces Figure 4(ii): fraction of
// simultaneous lookups agreeing on an owner under churn.
func BenchmarkFig4iiConsistency(b *testing.B) {
	for _, sessMin := range []float64{2, 16} {
		b.Run(fmt.Sprintf("session=%gmin", sessMin), func(b *testing.B) {
			h := staticRing(b, 24)
			h.StartChurn(sessMin * 60)
			h.Run(30)
			b.ResetTimer()
			sum, probes := 0.0, 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < 5; j++ {
					sum += h.ConsistencyProbe(5, 12)
					probes++
				}
			}
			h.StopChurn()
			b.ReportMetric(sum/float64(probes), "consistent-frac")
		})
	}
}

// BenchmarkFig4iiiChurnLatency reproduces Figure 4(iii): lookup latency
// under churn.
func BenchmarkFig4iiiChurnLatency(b *testing.B) {
	h := staticRing(b, 24)
	h.StartChurn(8 * 60)
	h.Run(30)
	b.ResetTimer()
	var lats []float64
	for i := 0; i < b.N; i++ {
		for j := 0; j < 20; j++ {
			lr := h.Lookup(h.RandomLiveAddr(), h.RandomKey())
			h.Run(12)
			if lr.Done {
				lats = append(lats, lr.Latency())
			}
		}
	}
	h.StopChurn()
	if len(lats) > 0 {
		cdf := experiments.NewCDF(lats)
		b.ReportMetric(cdf.Percentile(0.5)*1000, "p50-ms")
	}
}

// BenchmarkTransportThroughput measures the wire cost of bulk tuple
// traffic toward one destination for the batched and unbatched element
// chains. The figure to read is datagrams/ktuple: MTU-budget batching
// plus cumulative acks piggybacked on data frames must cut the
// datagram count at least 2x at equal delivered-tuple counts (the
// enforcing test is internal/transport's TestBatchingReducesDatagrams).
func BenchmarkTransportThroughput(b *testing.B) {
	const tuples = 1000
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"unbatched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var datagrams, wireBytes, delivered int64
			for i := 0; i < b.N; i++ {
				loop := eventloop.NewSim()
				scfg := simnet.DefaultConfig()
				scfg.Domains = 1
				net := simnet.New(loop, scfg)
				cfg := transport.DefaultConfig()
				cfg.NoBatch = mode.noBatch
				var src, dst *transport.Transport
				epA, _ := net.Attach("a", func(from string, p []byte) { src.Deliver(from, p) })
				epB, _ := net.Attach("b", func(from string, p []byte) { dst.Deliver(from, p) })
				src = transport.New(loop, epA, cfg)
				dst = transport.New(loop, epB, cfg)
				got := 0
				dst.OnReceive(func(string, *tuple.Tuple) { got++ })
				// Bulk load in strand-sized bursts, as gossip rounds produce.
				for burst := 0; burst < tuples/50; burst++ {
					at := float64(burst) * 0.05
					loop.At(at, func() {
						for j := 0; j < 50; j++ {
							src.Send("b", tuple.New("g", val.Str("b"), val.Int(int64(j))))
						}
					})
				}
				loop.Run(60)
				if got != tuples {
					b.Fatalf("delivered %d of %d", got, tuples)
				}
				st := net.TotalStats()
				datagrams += st.PacketsSent
				wireBytes += st.BytesSent
				delivered += int64(got)
			}
			b.ReportMetric(float64(datagrams)/float64(delivered)*1000, "datagrams/ktuple")
			b.ReportMetric(float64(wireBytes)/float64(delivered), "wire-B/tuple")
		})
	}
}

// BenchmarkNodeMemoryFootprint checks the §1 claim of ~800 kB working
// set per full Chord node.
func BenchmarkNodeMemoryFootprint(b *testing.B) {
	var fp experiments.Footprint
	for i := 0; i < b.N; i++ {
		fp = experiments.MeasureFootprint(8, 60)
	}
	b.ReportMetric(float64(fp.BytesPerNode)/1024, "kB/node")
}

// BenchmarkLookupDeclarative measures wall-clock simulation cost of
// lookups on the OverLog-driven engine — the "CPU usage comparable to
// C++ implementations" axis, paired with BenchmarkLookupHandcoded.
func BenchmarkLookupDeclarative(b *testing.B) {
	h := staticRing(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(h.RandomLiveAddr(), h.RandomKey())
		h.Run(10)
	}
}

// BenchmarkLookupHandcoded is the imperative baseline under the
// identical workload and network.
func BenchmarkLookupHandcoded(b *testing.B) {
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	var nodes []*chordref.Node
	for i := 0; i < 16; i++ {
		addr := fmt.Sprintf("n%d:ref", i)
		nd, err := chordref.NewNode(addr, loop, net, chordref.DefaultConfig(), int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
		if i == 0 {
			nd.Start("")
		} else {
			nd.Start(nodes[0].Addr())
		}
		loop.RunFor(0.5)
	}
	loop.RunFor(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[rng.Intn(len(nodes))].Lookup(id.Random(rng), func(string, int) {})
		loop.RunFor(10)
	}
}

// BenchmarkParseChord measures OverLog front-end speed on the full
// 50-rule Chord specification.
func BenchmarkParseChord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := overlog.Parse(p2.ChordSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileChord measures the planner on the same spec.
func BenchmarkCompileChord(b *testing.B) {
	prog := overlog.MustParse(p2.ChordSource)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Compile(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSuccessorList reports ring survival after a 25%
// burst failure for successor-list sizes 1 (MACEDON-style) and 4 — the
// successor-list ablation in internal/experiments.
func BenchmarkAblationSuccessorList(b *testing.B) {
	var rows []experiments.SuccessorAblationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunSuccessorAblation(20, 0.25, []int{1, 4}, 5)
	}
	b.ReportMetric(rows[0].RingCorrectness, "correct-s1")
	b.ReportMetric(rows[1].RingCorrectness, "correct-s4")
}

// BenchmarkAblationTransport reports lookup completion at 15% loss with
// and without the reliable transport.
func BenchmarkAblationTransport(b *testing.B) {
	var rows []experiments.TransportAblationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTransportAblation(16, []float64{0.15}, 25, 9)
	}
	for _, r := range rows {
		frac := float64(r.Completed) / float64(r.Issued)
		if r.Reliable {
			b.ReportMetric(frac, "done-reliable")
		} else {
			b.ReportMetric(frac, "done-raw")
		}
	}
}
