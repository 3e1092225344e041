package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of samples by linear
// interpolation between order statistics. It sorts samples in place and
// returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return sortedPercentile(samples, p)
}

func sortedPercentile(sorted []float64, p float64) float64 {
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 0.5)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the benchmark contract is judged by. ok is false below four
// values, where the quartiles are not meaningful.
func quartileSpread(values []float64) (spread float64, ok bool) {
	m := len(values)
	if m < 4 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := sortedPercentile(s, 0.5)
	if med == 0 {
		return 0, false
	}
	return math.Abs((q(3) - q(1)) / med), true
}
