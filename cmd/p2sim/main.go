// Command p2sim regenerates the paper's evaluation (§5) on the
// simulated Emulab-style network:
//
//	p2sim -exp fig3  -scale medium    # hop counts, idle bandwidth, latency CDFs
//	p2sim -exp fig4  -scale quick     # churn: bandwidth, consistency, latency
//	p2sim -exp rules                  # specification-complexity table
//	p2sim -exp mem                    # per-node memory footprint
//	p2sim -exp all   -scale paper     # everything at full paper scale
//
// Scales: quick (seconds), medium (minutes), paper (the published
// parameters: 100-500 node static rings, 400-node 20-minute churn).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"p2"
	"p2/internal/experiments"
	"p2/internal/overlays"
	"p2/internal/scenario"
	"p2/internal/simnet"
	"p2/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3|fig4|rules|mem|ablation|workload|all")
	scale := flag.String("scale", "quick", "scale: quick|medium|paper")
	seed := flag.Int64("seed", 1, "random seed")
	topology := flag.String("topology", "paper",
		"network model: paper (the GT-ITM-style default) | wan (measured-matrix transit-stub with jitter, queuing, and access/transit bandwidth)")
	shards := flag.Int("shards", runtime.NumCPU(),
		"parallel simulation shards (1 = sharded machinery on one core; metrics are identical at every count)")
	placement := flag.Bool("placement", false, "dump the node→shard placement map before running")
	explain := flag.Bool("explain", false, "print the Chord plan every node executes, then exit")
	replay := flag.String("replay", "", "replay a recorded wire trace (p2 -record) through the simulator and print the ring digest, then exit")
	replayUntil := flag.Float64("replay-until", 0, "virtual seconds to run the replay for (default: the trace's own end)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *explain {
		explainChord(os.Stdout)
		return
	}
	if *replay != "" {
		if err := replayTrace(os.Stdout, *replay, *seed, *replayUntil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shards < 1 {
		*shards = 1
	}
	sc.Shards = *shards
	switch *topology {
	case "paper":
		// sc.Net stays nil: every network gets the default topology.
	case "wan":
		wan := simnet.TransitStubWAN(4, 4, *seed)
		sc.Net = &wan
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q (paper|wan)\n", *topology)
		os.Exit(2)
	}
	if *placement {
		dumpPlacement(sc, *shards)
	}

	run := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Printf("\n[%s completed in %.1fs wall]\n\n", name, time.Since(start).Seconds())
	}

	switch *exp {
	case "fig3":
		run("fig3", func() { experiments.RunFig3(sc, *seed).Print(os.Stdout) })
	case "fig4":
		run("fig4", func() { experiments.RunFig4(sc, *seed).Print(os.Stdout) })
	case "rules":
		experiments.SpecComplexity().Print(os.Stdout)
	case "ablation":
		run("ablation", func() {
			experiments.PrintSuccessorAblation(os.Stdout,
				experiments.RunSuccessorAblation(sc, 24, 0.25, []int{1, 2, 4}, *seed))
			fmt.Println()
			experiments.PrintTransportAblation(os.Stdout,
				experiments.RunTransportAblation(sc, 16, []float64{0.05, 0.15, 0.30}, 30, *seed))
		})
	case "mem":
		run("mem", func() {
			fmt.Printf("== Memory footprint (paper §1: ~800 kB working set per node) ==\n")
			for _, n := range memSizes(sc) {
				fp := experiments.MeasureFootprint(sc, n, 60)
				fmt.Printf("nodes: %5d   heap/node: %.0f kB   run delta: %.0f kB   control: %.0f kB   interner: %d entries / %.0f kB\n",
					fp.Nodes, float64(fp.BytesPerNode)/1024, float64(fp.TotalHeapDelta)/1024,
					float64(fp.ControlDelta)/1024, fp.InternEntries, float64(fp.InternBytes)/1024)
			}
		})
	case "workload":
		run("workload", func() { runWorkload(os.Stdout, sc, *seed) })
	case "all":
		experiments.SpecComplexity().Print(os.Stdout)
		fmt.Println()
		run("mem", func() {
			fp := experiments.MeasureFootprint(sc, 8, 60)
			fmt.Printf("== Memory footprint ==\nnodes: %d   heap/node: %.0f kB\n",
				fp.Nodes, float64(fp.BytesPerNode)/1024)
		})
		run("mem-1k", func() {
			fp := experiments.MeasureFootprint(sc, 1000, 30)
			fmt.Printf("== Memory footprint at 1k (scale-out gauge) ==\nnodes: %d   heap/node: %.0f kB\n",
				fp.Nodes, float64(fp.BytesPerNode)/1024)
		})
		run("fig3", func() { experiments.RunFig3(sc, *seed).Print(os.Stdout) })
		run("fig4", func() { experiments.RunFig4(sc, *seed).Print(os.Stdout) })
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// memSizes picks the footprint-measurement populations for a scale:
// the paper-claim gauge (8 nodes) always, the scale-out gauges as the
// scale affords them.
func memSizes(sc experiments.Scale) []int {
	switch sc.Name {
	case "paper":
		return []int{8, 1000, 10000}
	case "medium":
		return []int{8, 1000}
	}
	return []int{8, 128}
}

// replayTrace re-executes a recorded UDP wire trace (p2 -record)
// offline through the virtual-time simulator and prints each recorded
// node's final best successor — the fault lab's record/replay recipe.
// The trace does not store the spawn order, so the landmark is taken
// to be the first recorded sender; pass the recording run's seed for
// matching node randomness.
func replayTrace(w io.Writer, path string, seed int64, until float64) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	addrs := tr.Nodes()
	// Put the first sender first: in a p2-recorded session the landmark
	// is spawned (and speaks) before its joiners.
	for _, rec := range tr.Recs {
		if rec.Dir == trace.Send {
			for i, a := range addrs {
				if a == rec.Src {
					addrs[0], addrs[i] = addrs[i], addrs[0]
				}
			}
			break
		}
	}
	digest, err := scenario.Replay(tr, addrs, seed, until)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== replay of %s (%d datagrams, %d nodes, %.2fs) ==\n",
		path, len(tr.Recs), len(addrs), tr.End())
	for i, a := range addrs {
		fmt.Fprintf(w, "  n%d = %s\n", i, a)
	}
	fmt.Fprintf(w, "ring digest: %s\n", digest)
	return nil
}

// explainChord prints the Chord plan exactly as every node executes it:
// each rule annotated with the body term order the planner chose
// (indices into the textual body) and the estimated cost under the
// catalog statistics. Rules without an annotation are frozen
// (non-deterministic functions pin them to textual order).
func explainChord(w io.Writer) {
	fmt.Fprintf(w, "== Chord plan, optimized (catalog statistics, start-time plans) ==\n\n")
	fmt.Fprintln(w, overlays.ChordPlan(nil).String())
}

// dumpPlacement prints where every node of the largest configured
// static ring would land. Placement is a pure function of (address,
// topology, shard count) — domain = hash(addr) mod Domains, shard =
// domain mod P — so the map is known before a single node spawns.
func dumpPlacement(sc experiments.Scale, shards int) {
	n := 0
	for _, size := range sc.StaticSizes {
		if size > n {
			n = size
		}
	}
	if sc.ChurnN > n {
		n = sc.ChurnN
	}
	cfg := simnet.DefaultConfig()
	perShard := make([]int, shards)
	fmt.Printf("== node→shard placement (%d nodes, %d domains, %d shards) ==\n",
		n, cfg.Domains, shards)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("n%d:p2", i)
		domain := cfg.DomainOf(addr)
		shard := domain % shards
		perShard[shard]++
		fmt.Printf("  %-12s domain %-3d shard %d\n", addr, domain, shard)
	}
	fmt.Printf("per-shard node counts: %v\n\n", perShard)
}

// runWorkload drives the open-loop drivers against the scale's largest
// static ring and prints their percentile reports — the lookup stream
// first (hops + latency + completion), then the replicated key-value
// PUT/GET mix (per-op latency, completion, staleness).
func runWorkload(w io.Writer, sc experiments.Scale, seed int64) {
	n := 0
	for _, size := range sc.StaticSizes {
		if size > n {
			n = size
		}
	}
	rate, dur := 10.0, sc.MeasureTime
	ring := func(kv bool) *experiments.Chord {
		h := experiments.NewChord(experiments.ChordOpts{N: n, Seed: seed, JoinSpacing: sc.JoinSpacing, Net: sc.Net, Shards: sc.Shards, KV: kv})
		h.D.Run(h.JoinDeadline() + sc.SettleTime)
		return h
	}
	lo := experiments.LookupOpts{Rate: rate, Duration: dur, Seed: seed}

	fmt.Fprintf(w, "== Open-loop lookup workload (n=%d, %.0f lookups/s for %.0fs) ==\n", n, rate, dur)
	h := ring(false)
	fmt.Fprintf(w, "ring correctness before load: %.3f\n", h.RingCorrectness())
	rep := experiments.RunLookups(h, lo)
	fmt.Fprintf(w, "issued %d, completed %d (%.1f%%)\n", rep.Issued, rep.Completed, 100*rep.CompletionRate())
	fmt.Fprintf(w, "hops    p50/p99/p999: %.0f / %.0f / %.0f (mean %.2f)\n", rep.HopP50, rep.HopP99, rep.HopP999, rep.MeanHops)
	fmt.Fprintf(w, "latency p50/p99/p999: %.1f / %.1f / %.1f ms\n",
		rep.LatencyP50*1000, rep.LatencyP99*1000, rep.LatencyP999*1000)
	h.D.Close()

	fmt.Fprintf(w, "\n== Key-value PUT/GET mix (n=%d, %.0f ops/s for %.0fs, R=%d Q=%d) ==\n",
		n, rate, dur, p2.KVReplicas, p2.KVQuorum)
	hk := ring(true)
	kr := experiments.RunKV(hk, experiments.KVOpts{LookupOpts: lo})
	fmt.Fprintf(w, "puts %d/%d, gets %d/%d completed (%.1f%% overall)\n",
		kr.PutsCompleted, kr.PutsIssued, kr.GetsCompleted, kr.GetsIssued, 100*kr.CompletionRate())
	fmt.Fprintf(w, "put latency p50/p99/p999: %.1f / %.1f / %.1f ms\n",
		kr.PutP50*1000, kr.PutP99*1000, kr.PutP999*1000)
	fmt.Fprintf(w, "get latency p50/p99/p999: %.1f / %.1f / %.1f ms\n",
		kr.GetP50*1000, kr.GetP99*1000, kr.GetP999*1000)
	fmt.Fprintf(w, "stale gets: %d (%.2f%%), misses: %d\n", kr.StaleGets, 100*kr.StalenessRate(), kr.Misses)
	hk.D.Close()
}
