package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// median returns the middle of xs (the mean of the two middles for even
// counts); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile is the highest percentile, at most want, that leaves at
// least minTail of n samples beyond it. It returns 0 when n is too small
// for any tail (fewer than minTail+1 samples).
func tailPercentile(n int, want float64) float64 {
	if n <= minTail {
		return 0
	}
	p := 100 * (1 - float64(minTail)/float64(n))
	return math.Min(want, math.Floor(p*10)/10)
}

// percentile is the nearest-rank percentile p (0-100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail reports the percentile want of xs, lowered until at least minTail
// samples lie beyond it, and the percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = tailPercentile(len(xs), want)
	if used == 0 {
		return math.NaN(), 0
	}
	return percentile(xs, used), used
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with the
// default exclusive method, so spreads here match spreads computed there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
