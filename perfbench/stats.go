package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of sorted by the rule
// Python's statistics.quantiles uses by default (method "exclusive"):
// position p·(n+1), interpolated between its neighbours. Positions
// outside the sample clamp to its minimum or maximum instead of
// extrapolating. It returns NaN for an empty sample.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// median is quantile 0.5: the middle value, or the mean of the middle
// two.
func median(sorted []float64) float64 { return quantile(sorted, 0.5) }

// tailLevels are the percentiles a tail is reported at, lowest first,
// each with the share of samples beyond it as 1/beyond.
var tailLevels = []struct {
	pct    float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest percentile of tailLevels that has at
// least ten samples beyond it in a sample of n; 0 when even the median
// has fewer than ten beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, l := range tailLevels {
		if n >= 10*l.beyond {
			best = l.pct
		}
	}
	return best
}

// samples is one series of latencies.
type samples struct {
	d []time.Duration
}

func (s *samples) add(d time.Duration) { s.d = append(s.d, d) }

func (s *samples) merge(o *samples) { s.d = append(s.d, o.d...) }

// sorted returns the series in the given unit, ascending.
func (s *samples) sorted(unit time.Duration) []float64 {
	out := make([]float64, len(s.d))
	for i, d := range s.d {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// pct returns the p-th percentile (0–100) in the given unit.
func (s *samples) pct(p float64, unit time.Duration) float64 {
	return quantile(s.sorted(unit), p/100)
}

// mean returns the arithmetic mean in the given unit.
func (s *samples) mean(unit time.Duration) float64 {
	if len(s.d) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return float64(sum) / float64(len(s.d)) / float64(unit)
}

// sum returns the total in the given unit.
func (s *samples) sum(unit time.Duration) float64 {
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return float64(sum) / float64(unit)
}

// ratio divides, reading 0/0 as 0 for layers that did no work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
