package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least p of the samples at or below
// it. Nearest rank never invents a value between two samples, which
// matters for latency tails made of a few slow batches.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median of an unsorted float slice (mean of the middle two when even);
// the slice is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the width of vs relative to its median: the interquartile
// distance once there are enough values for quartiles to mean something,
// the full range below that. It is the run-to-run noise compare weighs a
// difference against.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartile(s, 0.25), quartile(s, 0.75)
	}
	return (hi - lo) / math.Abs(m)
}

// quartile interpolates like Python's statistics.quantiles(n=4), the
// rule the driver applies: position p·(n+1) on the 1-based sorted list.
func quartile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	i := int(pos)
	if i < 1 {
		return sorted[0]
	}
	if i >= n {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i-1] + frac*(sorted[i]-sorted[i-1])
}

// sortedCopy returns the samples of all per-connection slices merged and
// sorted.
func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func meanInt64(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	return sum / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
