package experiments

// Open-loop workloads, the measurement side of the scale-out campaign.
// Open loop means arrivals never wait for completions: the driver
// pre-draws a Poisson arrival schedule (the superposition of millions
// of thin clients is a Poisson process, so one aggregate rate models
// any client population) and issues each operation at its scheduled
// virtual time through the deployment's barrier lane, whether or not
// earlier ones have returned. That is the workload shape that exposes
// queueing collapse: a closed loop self-throttles when the system
// slows, an open loop keeps arriving and shows the p999.
//
// The schedule, requesters, keys and op kinds all derive from the
// options' Seed, drawn either up front or inside barrier callbacks
// (which run in schedule order with every shard loop quiescent), so a
// run reports bit-identical results at any shard count.

import (
	"fmt"
	"math/rand"

	"p2"
	"p2/internal/id"
)

// LookupOpts configures one open-loop lookup run.
type LookupOpts struct {
	// Rate is the aggregate arrival rate in operations per virtual
	// second across the whole deployment.
	Rate float64
	// Duration is the arrival window in virtual seconds.
	Duration float64
	// Drain is how long past the window the run keeps simulating so
	// in-flight operations can finish (default 30 virtual seconds).
	Drain float64
	// Seed drives the arrival schedule and every per-arrival choice.
	Seed int64
}

// LookupReport summarizes one lookup run. Percentiles are nearest-rank
// over completed lookups; latency is virtual seconds from issue to the
// requester observing lookupResults.
type LookupReport struct {
	Issued    int
	Completed int

	HopP50, HopP99, HopP999             float64
	LatencyP50, LatencyP99, LatencyP999 float64
	MeanHops                            float64
}

// CompletionRate is the fraction of issued lookups that finished.
func (r LookupReport) CompletionRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Issued)
}

// openLoop issues one operation per arrival of a Poisson schedule at
// o.Rate over o.Duration, then advances virtual time through the window
// plus the drain. issue runs inside the arrival's barrier callback with
// the driver's rng and a uniformly drawn live requester, so every draw
// is deterministic at any shard count. Call it from the driver with
// the deployment quiescent (between Run calls); it owns the clock
// until it returns.
func openLoop(h *Chord, o LookupOpts, issue func(rng *rand.Rand, from string)) {
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

	base := h.D.Now()
	for _, off := range arrivals {
		h.D.At(base+off, func() {
			live := h.D.Addrs()
			issue(rng, live[rng.Intn(len(live))])
		})
	}
	h.D.Run(o.Duration + o.Drain)
}

// RunLookups issues the configured open-loop lookup stream against h
// and reports hop and latency percentiles.
func RunLookups(h *Chord, o LookupOpts) LookupReport {
	var issued []*LookupResult
	openLoop(h, o, func(rng *rand.Rand, from string) {
		issued = append(issued, h.Lookup(from, id.Random(rng)))
	})

	rep := LookupReport{Issued: len(issued)}
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
	hc, lc := NewCDF(hops), NewCDF(lats)
	rep.HopP50, rep.HopP99, rep.HopP999 = hc.Percentile(0.50), hc.Percentile(0.99), hc.Percentile(0.999)
	rep.LatencyP50, rep.LatencyP99, rep.LatencyP999 = lc.Percentile(0.50), lc.Percentile(0.99), lc.Percentile(0.999)
	return rep
}

// KVOpts configures one open-loop PUT/GET run through the deployment's
// KV client: the same schedule as RunLookups, against a Chord built
// with ChordOpts.KV.
type KVOpts struct {
	LookupOpts
	// PutFraction is the probability an arrival is a PUT (default 0.5).
	PutFraction float64
	// Keys is the size of the key universe ops draw from uniformly
	// (default 64). Smaller universes mean hotter keys and more
	// overwrite/staleness pressure.
	Keys int
}

// KVReport summarizes one run: per-op-type completion and latency
// percentiles, plus the staleness rate of completed GETs — the
// fraction whose result predates the last quorum-acked PUT.
type KVReport struct {
	PutsIssued, PutsCompleted int
	GetsIssued, GetsCompleted int
	StaleGets                 int // completed GETs returning stale data
	Misses                    int // completed GETs finding nothing

	PutP50, PutP99, PutP999 float64 // PUT latency, seconds
	GetP50, GetP99, GetP999 float64 // GET latency, seconds
}

// CompletionRate is the fraction of issued operations that finished.
func (r KVReport) CompletionRate() float64 {
	issued := r.PutsIssued + r.GetsIssued
	if issued == 0 {
		return 0
	}
	return float64(r.PutsCompleted+r.GetsCompleted) / float64(issued)
}

// StalenessRate is the fraction of completed GETs that were stale.
func (r KVReport) StalenessRate() float64 {
	if r.GetsCompleted == 0 {
		return 0
	}
	return float64(r.StaleGets) / float64(r.GetsCompleted)
}

// RunKV issues the configured PUT/GET stream against h and reports
// per-op percentiles and the staleness rate.
func RunKV(h *Chord, o KVOpts) KVReport {
	if o.PutFraction <= 0 {
		o.PutFraction = 0.5
	}
	if o.Keys <= 0 {
		o.Keys = 64
	}
	kv := h.D.KV()
	var puts, gets []*p2.KVOp
	seq := 0
	openLoop(h, o.LookupOpts, func(rng *rand.Rand, addr string) {
		from := h.D.Node(addr)
		key := fmt.Sprintf("wk/%d/%d", o.Seed, rng.Intn(o.Keys))
		isPut := rng.Float64() < o.PutFraction
		seq++
		if from == nil {
			return // requester churned out between draw and issue
		}
		if isPut {
			if op, err := kv.Put(from, key, fmt.Sprintf("v%d", seq)); err == nil {
				puts = append(puts, op)
			}
		} else {
			if op, err := kv.Get(from, key); err == nil {
				gets = append(gets, op)
			}
		}
	})

	rep := KVReport{PutsIssued: len(puts), GetsIssued: len(gets)}
	var putLats, getLats []float64
	for _, op := range puts {
		if op.Done {
			rep.PutsCompleted++
			putLats = append(putLats, op.Latency())
		}
	}
	for _, op := range gets {
		if op.Done {
			rep.GetsCompleted++
			getLats = append(getLats, op.Latency())
			if op.Stale {
				rep.StaleGets++
			}
			if !op.Found {
				rep.Misses++
			}
		}
	}
	pc, gc := NewCDF(putLats), NewCDF(getLats)
	rep.PutP50, rep.PutP99, rep.PutP999 = pc.Percentile(0.50), pc.Percentile(0.99), pc.Percentile(0.999)
	rep.GetP50, rep.GetP99, rep.GetP999 = gc.Percentile(0.50), gc.Percentile(0.99), gc.Percentile(0.999)
	return rep
}
