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

// argminRow draws one row's dot terms and norms of length n and its
// norm an for the scan tests, from the specials two times in three;
// every fourth trial has all-zero norms, so that dot terms tie.
func argminRow(rng *rand.Rand, n, trial int) (acc, norms []float64, an float64) {
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return argminSpecials[rng.Intn(len(argminSpecials))]
	}
	acc, norms = make([]float64, n), make([]float64, n)
	for j := range acc {
		acc[j], norms[j] = draw(), draw()
	}
	an = draw()
	if trial%4 == 0 {
		an = 0
		clear(norms)
	}
	return acc, norms, an
}

// argminLengths are the row lengths the scan tests run: every length
// up to 40, so the kernel's 8-lane steps and the Go tail meet at each
// offset, and 1000.
func argminLengths() []int {
	lengths := []int{1000}
	for n := 1; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	return lengths
}

// TestNearestOfKernelRule holds the argmin kernel to the scan's own Go
// loop, bit for bit, at every row length up to 40 and at 1000, with
// values drawn from a handful of specials so that exact ties, −0
// against +0, a NaN first value, later NaNs and infinities land in
// every lane and in the Go tail. Odd trials scan a later column block,
// which starts from a carried entry: a NaN, +0, −0, or a value that
// ties one of the block's own.
func TestNearestOfKernelRule(t *testing.T) {
	if !AsmSupported() {
		t.Skip("no assembly kernels on this build")
	}
	rng := rand.New(rand.NewSource(50))
	for _, n := range argminLengths() {
		for trial := 0; trial < 200; trial++ {
			acc, norms, an := argminRow(rng, n, trial)
			var best float64
			var bi int32
			j0 := 0
			if trial%2 == 1 {
				j0 = 64 * (1 + rng.Intn(3))
				bi = int32(rng.Intn(j0))
				switch trial / 2 % 4 {
				case 0:
					best = math.NaN()
				case 1:
					best = 0
				case 2:
					best = math.Copysign(0, -1)
				case 3:
					j := rng.Intn(n)
					best = acc[j] + an + norms[j]
				}
			}
			wantV, wantI := nearestOf(acc, norms, an, best, bi, j0, false)
			gotV, gotI := nearestOf(acc, norms, an, best, bi, j0, true)
			if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("n=%d trial %d j0=%d carried (%v, %d): kernel (%v, %d), scan (%v, %d)\nacc=%v\nnorms=%v\nan=%v",
					n, trial, j0, best, bi, gotV, gotI, wantV, wantI, acc, norms, an)
			}
		}
	}
}

// TestNearestOfCarry checks the carry rule against one unsplit scan:
// a row scanned as two blocks, the second starting from the first's
// answer, gets the same centroid and the same bits at every split
// point, with the assembly on and off.
func TestNearestOfCarry(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, asm := range []bool{true, false} {
		if asm && !AsmSupported() {
			continue
		}
		for _, n := range argminLengths() {
			for trial := 0; trial < 40; trial++ {
				acc, norms, an := argminRow(rng, n, trial)
				wantV, wantI := nearestOf(acc, norms, an, 0, 0, 0, asm)
				for s := 1; s < n; s += 1 + n/40 {
					v, i := nearestOf(acc[:s], norms[:s], an, 0, 0, 0, asm)
					gotV, gotI := nearestOf(acc[s:], norms[s:], an, v, i, s, asm)
					if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
						t.Fatalf("asm=%v n=%d trial %d split at %d: (%v, %d), one scan (%v, %d)",
							asm, n, trial, s, gotV, gotI, wantV, wantI)
					}
				}
			}
		}
	}
}

// TestPanelBlockCols pins the column-block widths the parity tests'
// multi-block shapes rely on: one block while the panel fits in
// panelBlockBytes, including the benchmark's largest float64 panel
// (1000×32, 250 KiB), and otherwise the largest multiple of 64 columns
// that fits, at least 64.
func TestPanelBlockCols(t *testing.T) {
	for _, c := range []struct {
		k, d, elem, want int
	}{
		{100, 16, 8, 100},
		{1000, 32, 8, 1000},
		{500, 32, 8, 500},
		{3000, 32, 8, 1024},
		{3000, 32, 4, 2048},
		{10000, 64, 8, 512},
		{10000, 64, 4, 1024},
		{1000, 130, 8, 192},
		{1000, 130, 4, 448},
		{1000, 65, 4, 1000}, // 260000 bytes, just inside the budget
		{1000, 140, 8, 192},
		{1000, 140, 4, 448},
		{300, 5000, 8, 64},
		{50, 5000, 8, 50},
	} {
		var got int
		if c.elem == 4 {
			var p Panel[float32]
			p.Build(make([]float32, c.k*c.d), c.k, c.d)
			got = p.kb
		} else {
			var p Panel[float64]
			p.Build(make([]float64, c.k*c.d), c.k, c.d)
			got = p.kb
		}
		if got != c.want {
			t.Errorf("k=%d d=%d at %d bytes: %d columns per block, want %d", c.k, c.d, c.elem, got, c.want)
		}
	}
}
