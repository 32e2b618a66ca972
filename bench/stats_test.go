package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, ok := percentile(xs, 0.90); !ok || !math.IsInf(v, 1) {
		t.Fatalf("p90 with 11%% failures = %v, %v; want +Inf", v, ok)
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4),
// the rule the acceptance check applies to the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Fatalf("spread of equal values = %v, want 0", got)
	}
}
