package blas

import (
	"math"
	"math/rand"
	"testing"
)

// argminSpecials are the values TestNearestOfKernelRule mixes into a
// row's dot terms and norms: ties by value, signed zeros, infinities
// and NaN.
var argminSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestNearestOfKernelRule holds the argmin kernel to the scan's own Go
// loop, bit for bit, at every row length up to 40 and at 1000, with
// values drawn from a handful of specials so that exact ties, −0
// against +0, a NaN first value, later NaNs and infinities land in
// every lane and in the Go tail.
func TestNearestOfKernelRule(t *testing.T) {
	if !AsmSupported() {
		t.Skip("no assembly kernels on this build")
	}
	rng := rand.New(rand.NewSource(50))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return argminSpecials[rng.Intn(len(argminSpecials))]
	}
	lengths := []int{1000}
	for n := 1; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for trial := 0; trial < 200; trial++ {
			acc := make([]float64, n)
			norms := make([]float64, n)
			for j := range acc {
				acc[j], norms[j] = draw(), draw()
			}
			an := draw()
			if trial%4 == 0 {
				an = 0
				for j := range norms {
					norms[j] = 0
				}
			}
			wantV, wantI := nearestOf(acc, norms, an, false)
			gotV, gotI := nearestOf(acc, norms, an, true)
			if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("n=%d trial %d: kernel (%v, %d), scan (%v, %d)\nacc=%v\nnorms=%v\nan=%v",
					n, trial, gotV, gotI, wantV, wantI, acc, norms, an)
			}
		}
	}
}
