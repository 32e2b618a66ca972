package blas_test

// Differential tests for the assembly microkernels against the pure-Go
// tiled kernels, across odd shapes (block remainders, masked tails,
// single rows/columns) and alpha/beta edge cases. Contracts:
//
//   float64: bit-identical. The amd64 kernel reproduces the scalar
//   reference's rounding sequence with unfused mul/add; the arm64 kernel
//   fuses exactly where the Go compiler fuses. Either way asm and Go
//   must agree to the bit on the platform the test runs on.
//
//   float32: ULP-bounded. Both kernels sum in p order per element but
//   round differently (FMA vs separate ops, even/odd split), so each is
//   compared against a float64 oracle within a per-element error bound
//   of ~(k+4)·ε₃₂ scaled by the sum of |a·b| magnitudes.
//
// Under -tags noasm (or on ports without kernels) AsmSupported is false
// and SetAsmEnabled(true) is a no-op, so the same bodies exercise the
// pure-Go path twice — proving the fallback build passes every test.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"knor/internal/blas"
	"knor/internal/matrix"
)

var parityShapes = func() [][3]int {
	dims := []int{1, 2, 3, 5, 7, 8, 9, 31, 64}
	var shapes [][3]int
	// Full cross product of the small dims is cheap and hits every
	// body/tail/masked-tail and row-pairing combination.
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	// Larger-than-one-block shapes, including the PairwiseSqDist-shaped
	// wide-m case and a 1000-ish k for accumulation depth.
	shapes = append(shapes,
		[3]int{130, 100, 16},
		[3]int{65, 129, 70},
		[3]int{3, 257, 1000},
		[3]int{200, 3, 999},
	)
	return shapes
}()

var parityCoeffs = []struct{ alpha, beta float64 }{
	{-2, 0},
	{1, 1},
	{0.5, -1},
	{0, 2},
	{-2, 1},
}

func fillF64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestDgemm64AsmBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range parityShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := fillF64(rng, m*k)
		b := fillF64(rng, n*k)
		c0 := fillF64(rng, m*n)
		for _, cf := range parityCoeffs {
			for _, threads := range []int{1, 3} {
				cAsm := append([]float64(nil), c0...)
				cGo := append([]float64(nil), c0...)
				prev := blas.SetAsmEnabled(true)
				blas.Dgemm(cf.alpha, a, m, k, b, n, cf.beta, cAsm, threads)
				blas.SetAsmEnabled(false)
				blas.Dgemm(cf.alpha, a, m, k, b, n, cf.beta, cGo, threads)
				blas.SetAsmEnabled(prev)
				for i := range cAsm {
					if math.Float64bits(cAsm[i]) != math.Float64bits(cGo[i]) {
						t.Fatalf("shape %v alpha=%v beta=%v threads=%d: c[%d] asm=%v (%#x) go=%v (%#x)",
							sh, cf.alpha, cf.beta, threads, i,
							cAsm[i], math.Float64bits(cAsm[i]), cGo[i], math.Float64bits(cGo[i]))
					}
				}
			}
		}
	}
}

func TestDgemm32AsmULPBounded(t *testing.T) {
	const eps32 = 1.0 / (1 << 24)
	rng := rand.New(rand.NewSource(43))
	for _, sh := range parityShapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		a64 := make([]float64, m*k)
		b64 := make([]float64, n*k)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			a64[i] = float64(a[i])
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
			b64[i] = float64(b[i])
		}
		c0 := make([]float32, m*n)
		for i := range c0 {
			c0[i] = float32(rng.NormFloat64())
		}
		for _, cf := range parityCoeffs {
			alpha, beta := float32(cf.alpha), float32(cf.beta)
			cAsm := append([]float32(nil), c0...)
			cGo := append([]float32(nil), c0...)
			prev := blas.SetAsmEnabled(true)
			blas.Dgemm(alpha, a, m, k, b, n, beta, cAsm, 1)
			blas.SetAsmEnabled(false)
			blas.Dgemm(alpha, a, m, k, b, n, beta, cGo, 1)
			blas.SetAsmEnabled(prev)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					// float64 oracle and magnitude bound for element (i, j).
					var ref, mag float64
					for p := 0; p < k; p++ {
						prod := a64[i*k+p] * b64[j*k+p]
						ref += prod
						mag += math.Abs(prod)
					}
					want := cf.alpha*ref + cf.beta*float64(c0[i*n+j])
					tol := (float64(k)+4)*eps32*math.Abs(cf.alpha)*mag + 4*eps32*(math.Abs(want)+1)
					for _, got := range []float32{cAsm[i*n+j], cGo[i*n+j]} {
						if d := math.Abs(float64(got) - want); d > tol {
							t.Fatalf("shape %v alpha=%v beta=%v: c[%d,%d]=%v want %v (|d|=%g > tol %g)",
								sh, cf.alpha, cf.beta, i, j, got, want, d, tol)
						}
					}
				}
			}
		}
	}
}

// TestDgemm32AsmSliceInvariant checks the contract the sharded serving
// layer depends on for the assembly path, like TestGemm32ColumnSliceInvariant
// does for the tiled Go kernel: computing distances against a row slice
// of B must equal the corresponding columns of the full computation.
func TestDgemm32AsmSliceInvariant(t *testing.T) {
	if !blas.AsmSupported() {
		t.Skip("no assembly kernels on this build")
	}
	rng := rand.New(rand.NewSource(44))
	const m, n, k = 37, 100, 16
	a := make([]float32, m*k)
	b := make([]float32, n*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	full := make([]float32, m*n)
	blas.Dgemm(-2, a, m, k, b, n, 0, full, 1)
	for _, cut := range [][2]int{{0, 1}, {0, 33}, {7, 71}, {33, 100}, {99, 100}} {
		lo, hi := cut[0], cut[1]
		part := make([]float32, m*(hi-lo))
		blas.Dgemm(-2, a, m, k, b[lo*k:hi*k], hi-lo, 0, part, 1)
		for i := 0; i < m; i++ {
			for j := lo; j < hi; j++ {
				if math.Float32bits(part[i*(hi-lo)+j-lo]) != math.Float32bits(full[i*n+j]) {
					t.Fatalf("slice [%d,%d): c[%d,%d] differs from full GEMM", lo, hi, i, j)
				}
			}
		}
	}
}

func TestDgemmDegenerateShapes(t *testing.T) {
	// k=0 (zero-dim rows), m=0 and n=0 must not panic and must apply
	// exactly the beta scaling — this is the serve-boundary edge case a
	// zero-dim publish used to reach as a panic.
	c := []float64{1, 2, 3, 4}
	blas.Dgemm(-2, nil, 2, 0, nil, 2, 0.5, c, 1)
	for i, want := range []float64{0.5, 1, 1.5, 2} {
		if c[i] != want {
			t.Fatalf("k=0: c[%d]=%v want %v", i, c[i], want)
		}
	}
	blas.Dgemm[float32](1, nil, 0, 3, []float32{1, 2, 3}, 1, 2, nil, 1)
	blas.Dgemm[float32](1, []float32{1, 2, 3}, 1, 3, nil, 0, 2, nil, 2)
}

func FuzzDgemmAsmParity(f *testing.F) {
	f.Add(int64(1), 3, 5, 7)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 9, 31, 64)
	f.Fuzz(func(t *testing.T, seed int64, m, n, k int) {
		if m < 1 || n < 1 || k < 1 || m > 80 || n > 80 || k > 80 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := fillF64(rng, m*k)
		b := fillF64(rng, n*k)
		c0 := fillF64(rng, m*n)
		cAsm := append([]float64(nil), c0...)
		cGo := append([]float64(nil), c0...)
		prev := blas.SetAsmEnabled(true)
		blas.Dgemm(-2, a, m, k, b, n, 1, cAsm, 1)
		blas.SetAsmEnabled(false)
		blas.Dgemm(-2, a, m, k, b, n, 1, cGo, 1)
		blas.SetAsmEnabled(prev)
		for i := range cAsm {
			if math.Float64bits(cAsm[i]) != math.Float64bits(cGo[i]) {
				t.Fatalf("m=%d n=%d k=%d: c[%d] asm=%v go=%v", m, n, k, i, cAsm[i], cGo[i])
			}
		}
	})
}

// sqDistSpecials are the values the SqDistRows tests mix into their
// inputs: infinities, NaN, signed zeros, subnormals and values whose
// squares underflow, and magnitudes near √MaxFloat64 and √MaxFloat32
// whose squares overflow.
var sqDistSpecials = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2e-308, 1e-160, 1e-45,
	1.3407807929942596e154, -1.3407807929942596e154, 1e154, 1.8446742e19, -1.8e19,
}

// sqDistInput draws size normal values, each replaced by a special one
// with probability special.
func sqDistInput[T blas.Float](rng *rand.Rand, size int, special float64) []T {
	s := make([]T, size)
	for i := range s {
		v := rng.NormFloat64()
		if rng.Float64() < special {
			v = sqDistSpecials[rng.Intn(len(sqDistSpecials))]
		}
		s[i] = T(v)
	}
	return s
}

// sameBits reports bit equality, with any two NaNs equal: the kernel
// subtracts in SqDist's order, but a NaN's payload is the hardware's
// choice.
func sameBits[T blas.Float](a, b T) bool {
	if a != a && b != b {
		return true
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkSqDistRows holds SqDistRows to matrix.SqDist row by row, bit for
// bit, with y and out exactly n rows long and a sentinel past out.
func checkSqDistRows[T blas.Float](t *testing.T, label string, x, y []T, n int) {
	t.Helper()
	d := len(x)
	out := make([]T, n+1)
	const sentinel = -7
	out[n] = sentinel
	blas.SqDistRows(x, y[:n*d], n, out[:n])
	for j := 0; j < n; j++ {
		if want := matrix.SqDist(x, y[j*d:(j+1)*d]); !sameBits(out[j], want) {
			t.Fatalf("%s d=%d n=%d: out[%d]=%v, SqDist=%v", label, d, n, j, out[j], want)
		}
	}
	if out[n] != sentinel {
		t.Fatalf("%s d=%d n=%d: wrote past out[n-1]", label, d, n)
	}
}

func testSqDistRowsExact[T blas.Float](t *testing.T, width string) {
	rng := rand.New(rand.NewSource(48))
	ns := []int{1000}
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	for _, asm := range []bool{true, false} {
		prev := blas.SetAsmEnabled(asm)
		for _, special := range []float64{0, 0.05} {
			for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 32, 33} {
				for _, n := range ns {
					x := sqDistInput[T](rng, d, special)
					y := sqDistInput[T](rng, n*d, special)
					label := fmt.Sprintf("%s asm=%v special=%v", width, asm, special)
					checkSqDistRows(t, label, x, y, n)
				}
			}
		}
		blas.SetAsmEnabled(prev)
	}
}

// TestSqDistRowsExact holds the row-distance kernel to matrix.SqDist bit
// for bit at both widths, with the assembly path on and off, over every
// d mod 4 and n mod 8 tail and through Inf, NaN, subnormal and
// overflowing inputs.
func TestSqDistRowsExact(t *testing.T) {
	testSqDistRowsExact[float64](t, "float64")
	testSqDistRowsExact[float32](t, "float32")

	// Every special value at every column of an 8-row step, against
	// finite rows and against itself.
	prev := blas.SetAsmEnabled(true)
	defer blas.SetAsmEnabled(prev)
	const n, d = 9, 7
	rng := rand.New(rand.NewSource(49))
	for _, v := range sqDistSpecials {
		for p := 0; p < d; p++ {
			x := sqDistInput[float64](rng, d, 0)
			y := sqDistInput[float64](rng, n*d, 0)
			x[p] = v
			for j := 0; j < n; j += 2 {
				y[j*d+p] = v
			}
			checkSqDistRows(t, fmt.Sprintf("special %v at p=%d", v, p), x, y, n)
		}
	}
}

func FuzzSqDistRowsParity(f *testing.F) {
	f.Add(int64(1), 8, 4)
	f.Add(int64(2), 13, 17)
	f.Add(int64(3), 100, 16)
	f.Fuzz(func(t *testing.T, seed int64, n, d int) {
		if n < 0 || d < 1 || n > 300 || d > 80 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x := sqDistInput[float64](rng, d, 0.05)
		y := sqDistInput[float64](rng, n*d, 0.05)
		outAsm, outGo := make([]float64, n), make([]float64, n)
		prev := blas.SetAsmEnabled(true)
		blas.SqDistRows(x, y, n, outAsm)
		blas.SetAsmEnabled(false)
		blas.SqDistRows(x, y, n, outGo)
		blas.SetAsmEnabled(prev)
		for j := range outAsm {
			want := matrix.SqDist(x, y[j*d:(j+1)*d])
			if !sameBits(outAsm[j], outGo[j]) || !sameBits(outGo[j], want) {
				t.Fatalf("n=%d d=%d: out[%d] asm=%v go=%v SqDist=%v", n, d, j, outAsm[j], outGo[j], want)
			}
		}
	})
}

// BenchmarkSqDistRows times one row against the two benchmark models'
// centroid sets (d16/k=100, d32/k=1000), assembly against the Go loop,
// and reports ns per distance.
func BenchmarkSqDistRows(b *testing.B) {
	for _, sh := range []struct {
		name string
		d, k int
	}{{"d16k100", 16, 100}, {"d32k1000", 32, 1000}} {
		rng := rand.New(rand.NewSource(47))
		x := fillF64(rng, sh.d)
		y := fillF64(rng, sh.k*sh.d)
		out := make([]float64, sh.k)
		for _, asm := range []bool{true, false} {
			name := sh.name + "/go"
			if asm {
				name = sh.name + "/asm"
			}
			b.Run(name, func(b *testing.B) {
				if asm && !blas.AsmSupported() {
					b.Skip("no assembly kernels on this build")
				}
				prev := blas.SetAsmEnabled(asm)
				defer blas.SetAsmEnabled(prev)
				for i := 0; i < b.N; i++ {
					blas.SqDistRows(x, y, sh.k, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.k), "ns/dist")
			})
		}
	}
}
