// Package experiments is the simulated-measurement driver: every
// figure and quantified claim of the paper's evaluation section (§5),
// the ablations, the memory-footprint gauge and the open-loop lookup
// and KV workloads, all built on Chord, one measurement layer over a
// simulated p2.Deployment. Each Fig* function runs the workload the
// paper describes and returns the series it plots; cmd/p2sim prints
// them and bench_test.go wraps them as benchmarks.
//
// Scale presets let the same code run at paper scale (100-500 nodes,
// 20-minute churn runs) or at smoke-test scale for CI.
//
// Everything runs in virtual time, deterministically, on a Simulated
// deployment of ChordOpts.Shards parallel shards (1 = the sharded
// machinery on the driver goroutine — the determinism baseline). A
// P-shard run reports bit-identical metrics to the same seed at 1
// shard (TestShardedDeterminism enforces it): all randomness that
// shapes an individual node derives from (Seed, address) alone, and
// the drivers' own rngs only drive workload choices made between Run
// calls or at barriers (which node looks up which key).
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"p2/internal/chordref"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/simnet"
)

// Scale selects experiment sizing.
type Scale struct {
	Name string
	// Static experiment (Figure 3).
	StaticSizes []int
	Lookups     int     // lookups per network size
	SettleTime  float64 // seconds after last join before measuring
	MeasureTime float64 // idle window for maintenance bandwidth
	JoinSpacing float64
	LookupWait  float64 // seconds granted per lookup
	// Churn experiment (Figure 4).
	ChurnN        int
	SessionsMin   []float64 // mean session times in minutes
	ChurnDuration float64   // seconds of churned operation
	Probes        int       // consistency probes per session time
	ProbeSample   int       // simultaneous lookups per probe
	ProbeTimeout  float64
	// Execution (orthogonal to sizing): shard count of every network
	// the scale builds. >= 1 runs each network across that many
	// parallel event-loop shards; 0 defers to P2_SIM_SHARDS (cmd/p2sim
	// sets it from -shards).
	Shards int
	// Net overrides the network topology of every network the scale
	// builds, ablations and footprint rings included; nil keeps the
	// paper's default GT-ITM-style configuration (cmd/p2sim sets it
	// from -topology).
	Net *simnet.Config
}

// PaperScale reproduces the evaluation's parameters: static rings of
// 100/300/500 nodes and a 400-node network churned for 20 minutes at
// mean session times of 8-128 minutes.
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		StaticSizes: []int{100, 300, 500},
		Lookups:     300, SettleTime: 400, MeasureTime: 120,
		JoinSpacing: 0.5, LookupWait: 12,
		ChurnN: 400, SessionsMin: []float64{8, 16, 32, 64, 128},
		ChurnDuration: 1200, Probes: 60, ProbeSample: 10, ProbeTimeout: 20,
	}
}

// MediumScale is a few-minute variant preserving every qualitative
// shape.
func MediumScale() Scale {
	return Scale{
		Name:        "medium",
		StaticSizes: []int{50, 100, 200},
		Lookups:     150, SettleTime: 300, MeasureTime: 60,
		JoinSpacing: 0.5, LookupWait: 12,
		ChurnN: 100, SessionsMin: []float64{8, 16, 32, 64},
		ChurnDuration: 600, Probes: 30, ProbeSample: 8, ProbeTimeout: 20,
	}
}

// QuickScale is the CI smoke-test variant.
func QuickScale() Scale {
	return Scale{
		Name:        "quick",
		StaticSizes: []int{16, 32},
		Lookups:     40, SettleTime: 200, MeasureTime: 30,
		JoinSpacing: 0.5, LookupWait: 12,
		ChurnN: 24, SessionsMin: []float64{2, 8},
		ChurnDuration: 180, Probes: 10, ProbeSample: 5, ProbeTimeout: 20,
	}
}

// ScaleByName resolves "paper", "medium", or "quick".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale(), nil
	case "medium":
		return MediumScale(), nil
	case "quick":
		return QuickScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (paper|medium|quick)", name)
}

// CDF is a sorted sample set.
type CDF []float64

// NewCDF sorts a copy of samples.
func NewCDF(samples []float64) CDF {
	c := append(CDF(nil), samples...)
	sort.Float64s(c)
	return c
}

// Percentile returns the p-quantile (0..1) by nearest rank: the
// smallest sample at or above which lie at least p of the samples, the
// ceil(p·n)-th in sorted order (p=0 gives the minimum). NaN when there
// are no samples. This is the one percentile outside the benchmark rig;
// the open-loop reports use it too.
func (c CDF) Percentile(p float64) float64 {
	if len(c) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

// FractionBelow returns the CDF value at x.
func (c CDF) FractionBelow(x float64) float64 {
	if len(c) == 0 {
		return math.NaN()
	}
	n := sort.SearchFloat64s(c, x)
	return float64(n) / float64(len(c))
}

// Mean returns the sample mean.
func (c CDF) Mean() float64 {
	if len(c) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range c {
		s += v
	}
	return s / float64(len(c))
}

// StaticSizeResult holds Figure 3 measurements for one network size.
type StaticSizeResult struct {
	N               int
	Issued          int
	Completed       int
	Correct         int // owner matched ground truth
	HopHist         map[int]int
	MeanHops        float64
	LatencyCDF      CDF     // seconds
	MaintBPSPerNode float64 // maintenance bytes/s/node while idle
	RingCorrectness float64
}

// Fig3Result aggregates Figure 3(i)-(iii).
type Fig3Result struct {
	Scale   Scale
	PerSize []*StaticSizeResult
}

// RunFig3 builds a static Chord network per size and measures lookup
// hop counts (3i), idle maintenance bandwidth (3ii), and lookup
// latency (3iii) under a uniform lookup workload.
func RunFig3(sc Scale, seed int64) *Fig3Result {
	res := &Fig3Result{Scale: sc}
	for _, n := range sc.StaticSizes {
		res.PerSize = append(res.PerSize, runStaticSize(sc, n, seed))
	}
	return res
}

func runStaticSize(sc Scale, n int, seed int64) *StaticSizeResult {
	h := NewChord(ChordOpts{N: n, Seed: seed, JoinSpacing: sc.JoinSpacing, Shards: sc.Shards, Net: sc.Net})
	defer h.D.Close()
	h.D.Run(float64(n)*sc.JoinSpacing + sc.SettleTime)

	out := &StaticSizeResult{N: n, HopHist: make(map[int]int)}

	// Idle maintenance-bandwidth window (Figure 3ii): no lookups.
	h.ResetTraffic()
	h.D.Run(sc.MeasureTime)
	_, maint := h.TrafficBytes()
	out.MaintBPSPerNode = float64(maint) / float64(n) / sc.MeasureTime

	// Uniform lookup workload (Figures 3i, 3iii).
	var lats []float64
	totalHops := 0
	for i := 0; i < sc.Lookups; i++ {
		key := h.RandomKey()
		lr := h.Lookup(h.RandomLiveAddr(), key)
		h.D.Run(sc.LookupWait)
		out.Issued++
		if lr.Done {
			out.Completed++
			out.HopHist[lr.Hops]++
			totalHops += lr.Hops
			lats = append(lats, lr.Latency())
			if lr.Owner == h.IdealOwner(key) {
				out.Correct++
			}
		}
	}
	if out.Completed > 0 {
		out.MeanHops = float64(totalHops) / float64(out.Completed)
	}
	out.LatencyCDF = NewCDF(lats)
	// Ring correctness at the end of the measured window, so the value
	// reflects the steady state the lookups actually ran against.
	out.RingCorrectness = h.RingCorrectness()
	return out
}

// ChurnSessionResult holds Figure 4 measurements at one session time.
type ChurnSessionResult struct {
	SessionMin      float64
	MaintBPSPerNode float64
	ConsistencyCDF  CDF // per-probe consistent fraction
	MeanConsistency float64
	LatencyCDF      CDF
	LookupsIssued   int
	LookupsDone     int
}

// Fig4Result aggregates Figure 4(i)-(iii).
type Fig4Result struct {
	Scale      Scale
	PerSession []*ChurnSessionResult
}

// RunFig4 churns an N-node network at each mean session time following
// Bamboo's methodology (exponential sessions, constant population) and
// measures maintenance bandwidth (4i), lookup consistency (4ii), and
// lookup latency (4iii).
func RunFig4(sc Scale, seed int64) *Fig4Result {
	res := &Fig4Result{Scale: sc}
	for _, sessMin := range sc.SessionsMin {
		res.PerSession = append(res.PerSession, runChurnSession(sc, sessMin, seed))
	}
	return res
}

func runChurnSession(sc Scale, sessMin float64, seed int64) *ChurnSessionResult {
	h := NewChord(ChordOpts{N: sc.ChurnN, Seed: seed, JoinSpacing: sc.JoinSpacing, Shards: sc.Shards, Net: sc.Net})
	defer h.D.Close()
	h.D.Run(float64(sc.ChurnN)*sc.JoinSpacing + sc.SettleTime)

	out := &ChurnSessionResult{SessionMin: sessMin}
	h.StartChurn(sessMin * 60)
	h.ResetTraffic()
	start := h.D.Now()

	// Interleave consistency probes across the churn window; each
	// probe advances the clock by its timeout, churn running throughout.
	var fracs []float64
	gap := 0.0
	if sc.Probes > 0 {
		gap = sc.ChurnDuration/float64(sc.Probes) - sc.ProbeTimeout
		if gap < 0 {
			gap = 0
		}
	}
	for i := 0; i < sc.Probes; i++ {
		fracs = append(fracs, h.ConsistencyProbe(sc.ProbeSample, sc.ProbeTimeout))
		h.D.Run(gap)
	}
	if rem := sc.ChurnDuration - (h.D.Now() - start); rem > 0 {
		h.D.Run(rem)
	}
	elapsed := h.D.Now() - start
	h.D.DisableChurn()

	_, maint := h.TrafficBytes()
	out.MaintBPSPerNode = float64(maint) / float64(sc.ChurnN) / elapsed
	out.ConsistencyCDF = NewCDF(fracs)
	out.MeanConsistency = out.ConsistencyCDF.Mean()

	var lats []float64
	for _, lr := range h.Results {
		out.LookupsIssued++
		if lr.Done {
			out.LookupsDone++
			lats = append(lats, lr.Latency())
		}
	}
	out.LatencyCDF = NewCDF(lats)
	return out
}

// Complexity holds the specification-complexity comparison (§1, §5.2):
// rules per overlay versus lines of conventional code.
type Complexity struct {
	ChordRules     int
	ChordTables    int
	NaradaRules    int
	HandcodedLines int // our imperative Chord, same feature set
}

// SpecComplexity counts the shipped specifications.
func SpecComplexity() Complexity {
	chord := overlog.MustParse(overlays.ChordSource)
	narada := overlog.MustParse(overlays.NaradaSource)
	return Complexity{
		ChordRules:     chord.RuleCount() + len(chord.Facts),
		ChordTables:    len(chord.Materialize),
		NaradaRules:    narada.RuleCount(),
		HandcodedLines: chordref.SourceLines(),
	}
}

// report rendering ---------------------------------------------------------

// Print writes Figure 3's three panels as aligned text tables.
func (r *Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== Figure 3(i): lookup hop-count distribution (scale=%s) ==\n", r.Scale.Name)
	fmt.Fprintf(w, "%-6s", "hops")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("N=%d", s.N))
	}
	fmt.Fprintln(w)
	maxHops := 0
	for _, s := range r.PerSize {
		for hph := range s.HopHist {
			if hph > maxHops {
				maxHops = hph
			}
		}
	}
	for hc := 0; hc <= maxHops; hc++ {
		fmt.Fprintf(w, "%-6d", hc)
		for _, s := range r.PerSize {
			frac := 0.0
			if s.Completed > 0 {
				frac = float64(s.HopHist[hc]) / float64(s.Completed)
			}
			fmt.Fprintf(w, "%10.3f", frac)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-6s", "mean")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%10.2f", s.MeanHops)
	}
	fmt.Fprintf(w, "   (log2(N)/2:")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, " %.2f", math.Log2(float64(s.N))/2)
	}
	fmt.Fprintln(w, ")")

	fmt.Fprintf(w, "\n== Figure 3(ii): maintenance bandwidth, no churn ==\n")
	fmt.Fprintf(w, "%-10s %-18s %-14s\n", "N", "bytes/s/node", "ring-correct")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%-10d %-18.1f %-14.2f\n", s.N, s.MaintBPSPerNode, s.RingCorrectness)
	}

	fmt.Fprintf(w, "\n== Figure 3(iii): lookup latency CDF ==\n")
	fmt.Fprintf(w, "%-10s", "pct")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("N=%d", s.N))
	}
	fmt.Fprintln(w)
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99} {
		fmt.Fprintf(w, "%-10.2f", p)
		for _, s := range r.PerSize {
			fmt.Fprintf(w, "%9.2fs", s.LatencyCDF.Percentile(p))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "done")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("%d/%d", s.Completed, s.Issued))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "correct")
	for _, s := range r.PerSize {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("%d/%d", s.Correct, s.Completed))
	}
	fmt.Fprintln(w)
}

// Print writes Figure 4's three panels.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== Figure 4(i): maintenance bandwidth under churn (N=%d, scale=%s) ==\n",
		r.Scale.ChurnN, r.Scale.Name)
	fmt.Fprintf(w, "%-14s %-16s\n", "session(min)", "bytes/s/node")
	for _, s := range r.PerSession {
		fmt.Fprintf(w, "%-14.0f %-16.1f\n", s.SessionMin, s.MaintBPSPerNode)
	}

	fmt.Fprintf(w, "\n== Figure 4(ii): lookup consistency under churn ==\n")
	fmt.Fprintf(w, "%-14s %-10s %-10s %-10s %-10s\n", "session(min)", "mean", "p25", "p50", "p90")
	for _, s := range r.PerSession {
		fmt.Fprintf(w, "%-14.0f %-10.2f %-10.2f %-10.2f %-10.2f\n",
			s.SessionMin, s.MeanConsistency,
			s.ConsistencyCDF.Percentile(0.25),
			s.ConsistencyCDF.Percentile(0.50),
			s.ConsistencyCDF.Percentile(0.90))
	}

	fmt.Fprintf(w, "\n== Figure 4(iii): lookup latency under churn ==\n")
	fmt.Fprintf(w, "%-14s %-10s %-10s %-10s %-12s\n", "session(min)", "p50", "p90", "p99", "completed")
	for _, s := range r.PerSession {
		fmt.Fprintf(w, "%-14.0f %-9.2fs %-9.2fs %-9.2fs %d/%d\n",
			s.SessionMin,
			s.LatencyCDF.Percentile(0.50),
			s.LatencyCDF.Percentile(0.90),
			s.LatencyCDF.Percentile(0.99),
			s.LookupsDone, s.LookupsIssued)
	}
}

// Print writes the complexity comparison.
func (c Complexity) Print(w io.Writer) {
	fmt.Fprintln(w, "== Specification complexity (paper §1: Chord in 47 rules, Narada mesh in 16) ==")
	fmt.Fprintf(w, "%-34s %d rules (+%d tables)\n", "Chord in OverLog:", c.ChordRules, c.ChordTables)
	fmt.Fprintf(w, "%-34s %d rules\n", "Narada mesh in OverLog:", c.NaradaRules)
	fmt.Fprintf(w, "%-34s %d lines of Go\n", "Hand-coded Chord (internal/chordref):", c.HandcodedLines)
}
