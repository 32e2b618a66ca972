// Package blas implements the small set of dense linear-algebra kernels
// the reproduction needs: level-1 vector ops and a cache-blocked,
// optionally parallel Dgemm. These back the GEMM-formulated k-means
// baseline of the paper's Table 3 (MATLAB/BLAS rows), which computes all
// point-to-centroid distances as ‖v‖² + ‖c‖² − 2·V·Cᵀ.
//
// Every kernel is generic over Float. The float64 instantiation executes
// exactly the pre-generic code (same loop structure, same operation
// order), so it stays bit-identical with the serial oracle. The float32
// instantiation halves memory traffic — the bandwidth lever the paper's
// memory-hierarchy engineering is about — and additionally routes Dgemm
// through a register-tiled microkernel (see dgemmBlock32): the float64
// kernel cannot be rescheduled without breaking bit-identity, but the
// float32 kernel is new surface and free to break the sequential FMA
// dependency chain.
package blas

import (
	"fmt"
	"sync"

	"knor/internal/fp"
	"knor/internal/matrix"
)

// Float is the element-type constraint threaded through the matrix,
// kmeans and serve layers: float64 is the oracle precision, float32 the
// halved-bandwidth serving/training precision. (An alias of fp.Float —
// the constraint lives in a leaf package so matrix can name it too.)
type Float = fp.Float

// ElemBytes returns the in-memory size of one element of T.
func ElemBytes[T Float]() int { return fp.ElemBytes[T]() }

// Ddot returns xᵀy.
func Ddot[T Float](x, y []T) T {
	if len(x) != len(y) {
		panic("blas: Ddot length mismatch")
	}
	var s T
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Daxpy computes y += alpha*x.
func Daxpy[T Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Dscal computes x *= alpha.
func Dscal[T Float](alpha T, x []T) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dnrm2Sq returns ‖x‖² (squared Euclidean norm).
func Dnrm2Sq[T Float](x []T) T { return Ddot(x, x) }

// RowNormsSq fills out[i] with the squared norm of row i of the m×n
// row-major matrix a.
func RowNormsSq[T Float](a []T, m, n int, out []T) {
	if len(a) < m*n || len(out) < m {
		panic("blas: RowNormsSq size mismatch")
	}
	for i := 0; i < m; i++ {
		out[i] = Dnrm2Sq(a[i*n : (i+1)*n])
	}
}

// SqDistRows sets out[j] to the squared Euclidean distance between x
// and row j of the n×len(x) row-major matrix y, for j < n. Each value is
// bit-identical to matrix.SqDist(x, row j): the float64 AVX2 kernel (see
// kernels_amd64.s) keeps its subtract, square and ascending-p sum, and
// every other row, width and platform runs that loop itself.
func SqDistRows[T Float](x, y []T, n int, out []T) {
	d := len(x)
	if len(y) < n*d || len(out) < n {
		panic("blas: SqDistRows size mismatch")
	}
	j := 0
	if x64, ok := any(x).([]float64); ok && asmEnabled.Load() {
		j = sqDistRowsAsm64(x64, any(y).([]float64), n, any(out).([]float64))
	}
	for ; j < n; j++ {
		out[j] = matrix.SqDist(x, y[j*d:(j+1)*d])
	}
}

const blockDim = 64 // cache block edge, tuned for L1-resident tiles

// Dgemm computes C = alpha*A*Bᵀ + beta*C where A is m×k, B is n×k, and
// C is m×n, all row-major. The B-transposed convention matches the
// k-means use (points × centroidsᵀ) and keeps both inner streams
// sequential. threads <= 1 runs serially.
func Dgemm[T Float](alpha T, a []T, m, k int, b []T, n int, beta T, c []T, threads int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic(fmt.Sprintf("blas: Dgemm size mismatch m=%d n=%d k=%d", m, n, k))
	}
	if beta != 1 {
		for i := range c[:m*n] {
			c[i] *= beta
		}
	}
	// Degenerate shapes contribute nothing beyond the beta scaling. The
	// k == 0 case in particular must return here: the reference loops
	// fall through harmlessly, but the assembly drivers take &a[i*k+p0]
	// and run a do-while over k, neither of which tolerates emptiness.
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if threads <= 1 {
		dgemmRange(alpha, a, m, k, b, n, c, 0, m)
		return
	}
	// Split rows of A across workers in contiguous stripes.
	var wg sync.WaitGroup
	stripe := (m + threads - 1) / threads
	for w := 0; w < threads; w++ {
		lo := w * stripe
		if lo >= m {
			break
		}
		hi := lo + stripe
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dgemmRange(alpha, a, m, k, b, n, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// splitWork is the number of multiply-adds, m·k·d, from which a
// serving flush splits across goroutines. On a 2-core host the split
// paid at 1024×100×16 and 128×1000×32 (1.6M and 4.1M) and did not at
// 512×100×16 and 32×1000×32 (0.8M and 1.0M); EXPERIMENTS.md
// §Block-free float64 flush has the readings.
const splitWork = 1 << 20

// SplitThreads is the goroutine count for a serving flush of m query
// rows against k×d centroids, given up to threads: 1 when threads ≤ 1
// or the flush is below splitWork multiply-adds, where starting
// goroutines costs more than it saves, and threads otherwise.
// NearestRows applies it to every serving flush, at either precision.
func SplitThreads(m, k, d, threads int) int {
	if threads <= 1 || m*k*d < splitWork {
		return 1
	}
	return threads
}

// dgemmRange runs rows [rlo, rhi) through the kernel dispatchAsm
// picks. The assembly driver takes both widths: float64 asm is
// bit-identical to the reference schedule by construction, float32 asm
// keeps the same ULP-level and column-slice-invariance contracts as
// the tiled Go microkernel. Otherwise dgemmGo runs.
func dgemmRange[T Float](alpha T, a []T, m, k int, b []T, n int, c []T, rlo, rhi int) {
	if dispatchAsm[T]() {
		dgemmBlockAsm(alpha, a, m, k, b, n, c, rlo, rhi)
		return
	}
	dgemmGo(alpha, a, m, k, b, n, c, rlo, rhi)
}

// dispatchAsm reports whether one row stripe of element type T runs
// the assembly kernels (see kernels.go) and counts the stripe on
// knor_blas_gemm_dispatch_total under its width and implementation.
// Dgemm and NearestRows call it once per stripe.
func dispatchAsm[T Float]() bool {
	asm := asmEnabled.Load()
	switch {
	case ElemBytes[T]() == 4 && asm:
		telGemmAsm32.Inc()
	case ElemBytes[T]() == 4:
		telGemmGo32.Inc()
	case asm:
		telGemmAsm64.Inc()
	default:
		telGemmGo64.Inc()
	}
	return asm
}

// dgemmGo runs rows [rlo, rhi) through the pure-Go kernel of T's
// width: the register-tiled dgemmBlock32 at float32, and at float64
// the reference order (bit-identity with the oracle).
func dgemmGo[T Float](alpha T, a []T, m, k int, b []T, n int, c []T, rlo, rhi int) {
	if a32, ok := any(a).([]float32); ok {
		dgemmBlock32(float32(alpha), a32, m, k, any(b).([]float32), n, any(c).([]float32), rlo, rhi)
		return
	}
	dgemmBlock(alpha, a, m, k, b, n, c, rlo, rhi)
}

// dgemmBlock computes rows [rlo, rhi) of C += alpha*A*Bᵀ with cache
// blocking over all three dimensions. This is the reference schedule:
// the float64 path must not deviate from it.
func dgemmBlock[T Float](alpha T, a []T, m, k int, b []T, n int, c []T, rlo, rhi int) {
	for i0 := rlo; i0 < rhi; i0 += blockDim {
		iMax := min(i0+blockDim, rhi)
		for j0 := 0; j0 < n; j0 += blockDim {
			jMax := min(j0+blockDim, n)
			for p0 := 0; p0 < k; p0 += blockDim {
				pMax := min(p0+blockDim, k)
				for i := i0; i < iMax; i++ {
					arow := a[i*k : i*k+k]
					crow := c[i*n : i*n+n]
					for j := j0; j < jMax; j++ {
						brow := b[j*k : j*k+k]
						var s T
						for p := p0; p < pMax; p++ {
							s += arow[p] * brow[p]
						}
						crow[j] += alpha * s
					}
				}
			}
		}
	}
}

// dgemmBlock32 is the float32 microkernel: the same cache blocking as
// dgemmBlock, but register-tiled 4 columns wide with 2-way unrolled
// inner products (8 independent accumulator chains). The sequential
// s += a*b loop of the reference schedule compiles to a chained FMA —
// one fused op per add-latency — so it is latency-bound at either
// width; breaking the chain is what converts float32's halved element
// size into measured throughput (BenchmarkGemm32vs64, knorbench -exp
// precision). Summation order differs from the reference kernel, which
// is fine at float32: consumers get a relative-error contract, not
// bit-identity (see internal/kmeans precision tests).
//
// One order contract the kernel DOES keep: every output element's value
// depends only on its own A-row, B-row and the p-blocking — never on
// which column path (4-wide body or scalar remainder) computed it. The
// remainder columns therefore use the same 2-way-unrolled even/odd
// accumulator split as the tiled body. The sharded serving layer relies
// on this: a centroid block sliced out of a larger matrix must produce
// bit-identical distances to the same rows inside the full GEMM
// (TestGemm32ColumnSliceInvariant, internal/shardserve parity tests).
func dgemmBlock32(alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rlo, rhi int) {
	for i0 := rlo; i0 < rhi; i0 += blockDim {
		iMax := min(i0+blockDim, rhi)
		for j0 := 0; j0 < n; j0 += blockDim {
			jMax := min(j0+blockDim, n)
			for p0 := 0; p0 < k; p0 += blockDim {
				pMax := min(p0+blockDim, k)
				kl := pMax - p0
				for i := i0; i < iMax; i++ {
					arow := a[i*k+p0 : i*k+pMax]
					crow := c[i*n : i*n+n]
					j := j0
					for ; j+4 <= jMax; j += 4 {
						b0 := b[j*k+p0 : j*k+pMax]
						b1 := b[(j+1)*k+p0 : (j+1)*k+pMax]
						b2 := b[(j+2)*k+p0 : (j+2)*k+pMax]
						b3 := b[(j+3)*k+p0 : (j+3)*k+pMax]
						var s0a, s1a, s2a, s3a float32
						var s0b, s1b, s2b, s3b float32
						p := 0
						for ; p+2 <= kl; p += 2 {
							av0, av1 := arow[p], arow[p+1]
							s0a += av0 * b0[p]
							s0b += av1 * b0[p+1]
							s1a += av0 * b1[p]
							s1b += av1 * b1[p+1]
							s2a += av0 * b2[p]
							s2b += av1 * b2[p+1]
							s3a += av0 * b3[p]
							s3b += av1 * b3[p+1]
						}
						for ; p < kl; p++ {
							av := arow[p]
							s0a += av * b0[p]
							s1a += av * b1[p]
							s2a += av * b2[p]
							s3a += av * b3[p]
						}
						crow[j] += alpha * (s0a + s0b)
						crow[j+1] += alpha * (s1a + s1b)
						crow[j+2] += alpha * (s2a + s2b)
						crow[j+3] += alpha * (s3a + s3b)
					}
					for ; j < jMax; j++ {
						brow := b[j*k+p0 : j*k+pMax]
						var sa, sb float32
						p := 0
						for ; p+2 <= kl; p += 2 {
							sa += arow[p] * brow[p]
							sb += arow[p+1] * brow[p+1]
						}
						for ; p < kl; p++ {
							sa += arow[p] * brow[p]
						}
						crow[j] += alpha * (sa + sb)
					}
				}
			}
		}
	}
}

// PairwiseSqDist fills dist (m×n row-major) with squared Euclidean
// distances between rows of a (m×k) and rows of b (n×k) using the GEMM
// identity. Small negative values from cancellation are clamped to 0.
func PairwiseSqDist[T Float](a []T, m int, b []T, n, k int, dist []T, threads int) {
	if len(dist) < m*n {
		panic("blas: PairwiseSqDist dist too small")
	}
	an := make([]T, m)
	bn := make([]T, n)
	RowNormsSq(a, m, k, an)
	RowNormsSq(b, n, k, bn)
	for i := range dist[:m*n] {
		dist[i] = 0
	}
	Dgemm(-2, a, m, k, b, n, 0, dist, threads)
	for i := 0; i < m; i++ {
		row := dist[i*n : (i+1)*n]
		for j := range row {
			v := row[j] + an[i] + bn[j]
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
