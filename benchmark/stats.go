package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of an ascending
// sample by nearest rank: the smallest value with at least q·n
// samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the set of tail percentiles the benchmark reports,
// each with the share of a sample that lies beyond it as 1/beyond.
var tailLadder = []struct {
	q      float64
	beyond int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailQuantile picks the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n — the highest
// tail a run of that size can state without quoting its outliers.
// Below twenty samples not even the median qualifies; it is returned
// anyway with ok=false so the caller can mark the figure.
func tailQuantile(n int) (q float64, ok bool) {
	q = tailLadder[0].q
	for _, c := range tailLadder {
		if n/c.beyond >= 10 {
			q, ok = c.q, true
		}
	}
	return q, ok
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even n); 0 for empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// printed here compare directly with the driver's. Fewer than two
// values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, exclusive method, in its integer form.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// maxRelDev is the largest |x − median| / median.
func maxRelDev(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	var d float64
	for _, x := range xs {
		d = math.Max(d, math.Abs(x-m)/math.Abs(m))
	}
	return d
}

// stat summarizes the per-pass values of one metric.
type stat struct {
	Median, Q1, Q3 float64
	N              int // pass values behind the median
	Samples        int // raw samples behind each pass value (0 = n/a)
}

func summarize(passes []float64, samples int) stat {
	q1, q3 := quartiles(passes)
	return stat{Median: median(passes), Q1: q1, Q3: q3, N: len(passes), Samples: samples}
}
