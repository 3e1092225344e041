// Package workload drives open-loop lookup traffic against a Chord
// harness and reports latency percentiles — the measurement side of
// the scale-out campaign (ROADMAP: "an open-loop lookup workload
// driver that models millions of clients issuing requests against the
// overlay with latency-percentile reporting").
//
// Open-loop means arrivals never wait for completions: the driver
// pre-draws a Poisson arrival schedule (the superposition of millions
// of thin clients is a Poisson process, so one aggregate rate models
// any client population) and issues each lookup at its scheduled
// virtual time through the deployment's barrier lane, whether or not
// earlier lookups have returned. That is the workload shape that
// exposes queueing collapse: a closed loop self-throttles when the
// system slows, an open loop keeps arriving and shows the p999.
//
// Determinism: the schedule, requesters, and keys all derive from
// Opts.Seed via the driver's private rng, drawn either up front or
// inside barrier callbacks (which execute in deterministic order, with
// every shard loop quiescent) — so a workload run reports bit-identical
// results at any shard count, same as the harness it drives.
package workload

import (
	"math/rand"

	"p2/internal/experiments"
	"p2/internal/harness"
	"p2/internal/id"
)

// Opts configures one open-loop run.
type Opts struct {
	// Rate is the aggregate lookup arrival rate in lookups per virtual
	// second across the whole deployment.
	Rate float64
	// Duration is the arrival window in virtual seconds.
	Duration float64
	// Drain is how long past the window the run keeps simulating so
	// in-flight lookups can finish (default 30 virtual seconds).
	Drain float64
	// Seed drives the arrival schedule, requester and key choices.
	Seed int64
}

// Report summarizes one run. Percentiles are nearest-rank over
// completed lookups; latency is virtual seconds from issue to the
// requester observing lookupResults.
type Report struct {
	Issued    int
	Completed int

	HopP50, HopP99, HopP999             float64
	LatencyP50, LatencyP99, LatencyP999 float64
	MeanHops                            float64
}

// CompletionRate is the fraction of issued lookups that finished.
func (r Report) CompletionRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Issued)
}

// Run issues the configured lookup stream against h, advances virtual
// time through the window plus the drain, and reports percentiles.
// Call it from the driver with the harness quiescent (between Run
// calls); it owns the clock until it returns.
func Run(h *harness.Chord, o Opts) Report {
	if o.Drain <= 0 {
		o.Drain = 30
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Pre-draw the full arrival schedule: exponential inter-arrivals at
	// the aggregate rate. Open loop — nothing about the schedule can
	// depend on how the overlay keeps up.
	var arrivals []float64
	for t := rng.ExpFloat64() / o.Rate; t < o.Duration; t += rng.ExpFloat64() / o.Rate {
		arrivals = append(arrivals, t)
	}

	base := h.Now()
	issued := make([]*harness.LookupResult, 0, len(arrivals))
	for _, off := range arrivals {
		h.D.At(base+off, func() {
			// Requester and key draw inside the barrier callback:
			// callbacks fire in schedule order with all shards
			// quiescent, so the draw sequence — and the live set it
			// picks from — is deterministic at any shard count.
			live := h.LiveAddrs()
			from := live[rng.Intn(len(live))]
			issued = append(issued, h.Lookup(from, id.Random(rng)))
		})
	}
	h.Run(o.Duration + o.Drain)

	rep := Report{Issued: len(issued)}
	var hops, lats []float64
	totalHops := 0
	for _, lr := range issued {
		if !lr.Done {
			continue
		}
		rep.Completed++
		hops = append(hops, float64(lr.Hops))
		lats = append(lats, lr.Latency())
		totalHops += lr.Hops
	}
	if rep.Completed > 0 {
		rep.MeanHops = float64(totalHops) / float64(rep.Completed)
	}
	rep.HopP50, rep.HopP99, rep.HopP999 = percentiles(hops)
	rep.LatencyP50, rep.LatencyP99, rep.LatencyP999 = percentiles(lats)
	return rep
}

// percentiles returns the nearest-rank p50/p99/p999 of samples (see
// experiments.CDF.Percentile): NaN when there are none.
func percentiles(samples []float64) (p50, p99, p999 float64) {
	c := experiments.NewCDF(samples)
	return c.Percentile(0.50), c.Percentile(0.99), c.Percentile(0.999)
}
