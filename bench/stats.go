package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a percentile must have beyond it
// before the benchmark reports it: p90 needs 100 samples, p99 1000.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs and whether xs
// holds at least minTail samples beyond it. Failed operations enter as
// +Inf, so they count as missing every latency limit.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based; the epsilon absorbs q*n rounding up
	if n == 0 || n-rank < minTail {
		return math.NaN(), false
	}
	return sorted(xs)[max(rank, 1)-1], true
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones the acceptance check takes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
