package blas_test

import (
	"fmt"
	"math/rand"
	"testing"

	"knor/internal/blas"
)

// gemmScan is the answer NearestRows must reproduce: Dgemm(−2, …,
// beta = 1) into a zeroed m×k block, then a strict-< scan of
// (block + ‖aᵢ‖²) + ‖cⱼ‖² from j = 0.
func gemmScan[T blas.Float](a []T, m, d int, c []T, k int, normsSq []T) ([]T, []int32) {
	dist := make([]T, m*k)
	blas.Dgemm(-2, a, m, d, c, k, 1, dist, 1)
	an := make([]T, m)
	blas.RowNormsSq(a, m, d, an)
	best, idx := make([]T, m), make([]int32, m)
	for i := 0; i < m; i++ {
		row := dist[i*k : (i+1)*k]
		bv, bi := row[0]+an[i]+normsSq[0], 0
		for j := 1; j < k; j++ {
			if v := row[j] + an[i] + normsSq[j]; v < bv {
				bv, bi = v, j
			}
		}
		best[i], idx[i] = bv, int32(bi)
	}
	return best, idx
}

// FuzzNearestRowsParity holds NearestRows at both precisions, with the
// assembly on and off and at 1 and 3 threads, to Dgemm + scan (on the
// same kernels: float32's assembly fuses its multiply-adds) over
// fuzzed shapes (d > 64 takes more than one p block, m·k·d ≥ 2^20
// splits the rows, and k past the panel's 256 KiB block budget takes
// more than one column block: from 235 centroids at float64 and 469 at
// float32 when d = 140) and inputs salted with the SqDistRows
// specials. Every centroid at a multiple of 64, where a column block
// may start, copies the one before it, so exact ties straddle every
// block boundary. Every row must get the same centroid and value; two
// NaNs count as equal, since an input NaN's payload is the hardware's
// choice.
func FuzzNearestRowsParity(f *testing.F) {
	f.Add(int64(1), 3, 5, 7)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 64, 100, 16)
	f.Add(int64(4), 5, 17, 65)
	f.Add(int64(5), 79, 300, 64)
	f.Add(int64(6), 33, 1000, 140)
	f.Fuzz(func(t *testing.T, seed int64, m, k, d int) {
		if m < 1 || k < 1 || d < 1 || m > 80 || k > 1200 || d > 140 {
			t.Skip()
		}
		nearestParity[float64](t, seed, m, k, d)
		nearestParity[float32](t, seed, m, k, d)
	})
}

func nearestParity[T blas.Float](t *testing.T, seed int64, m, k, d int) {
	rng := rand.New(rand.NewSource(seed))
	a := sqDistInput[T](rng, m*d, 0.05)
	c := sqDistInput[T](rng, k*d, 0.05)
	if k > 2 {
		copy(c[(k-1)*d:], c[d:2*d]) // an exact tie between centroids 1 and k-1
	}
	for j := 64; j < k; j += 64 {
		copy(c[j*d:(j+1)*d], c[(j-1)*d:j*d])
	}
	normsSq := make([]T, k)
	blas.RowNormsSq(c, k, d, normsSq)
	var p blas.Panel[T]
	p.Build(c, k, d)
	for _, asm := range []bool{true, false} {
		prev := blas.SetAsmEnabled(asm)
		wantV, wantI := gemmScan(a, m, d, c, k, normsSq)
		for _, threads := range []int{1, 3} {
			best, idx := make([]T, m), make([]int32, m)
			blas.NearestRows(a, m, &p, normsSq, best, idx, threads)
			for i := range best {
				if idx[i] != wantI[i] || !sameBits(best[i], wantV[i]) {
					t.Fatalf("%T m=%d k=%d d=%d asm=%v threads=%d: row %d got (%v, %d), Dgemm+scan (%v, %d)",
						best[i], m, k, d, asm, threads, i, best[i], idx[i], wantV[i], wantI[i])
				}
			}
		}
		blas.SetAsmEnabled(prev)
	}
}

// TestSplitThreads pins the split rule both precisions' flushes share:
// one goroutine at threads ≤ 1 or below 2^20 multiply-adds (m·k·d),
// all threads from there up.
func TestSplitThreads(t *testing.T) {
	for _, c := range []struct{ m, k, d, threads, want int }{
		{4, 100, 16, 2, 1},      // the d16 request: 6400
		{512, 100, 16, 2, 1},    // 819200
		{1024, 1023, 1, 4, 1},   // one below 2^20
		{1024, 1024, 1, 3, 3},   // exactly 2^20
		{1024, 1024, 1, 1, 1},   // 2^20 on one thread
		{64, 1000, 32, 2, 2},    // the d32 request: 2048000
		{64, 1000, 32, 0, 1},    // threads unset
		{64, 1000, 32, -1, 1},   // threads negative
		{4096, 10000, 64, 3, 3}, // far above
		{0, 1000, 32, 2, 1},     // an empty flush
	} {
		if got := blas.SplitThreads(c.m, c.k, c.d, c.threads); got != c.want {
			t.Errorf("SplitThreads(m=%d, k=%d, d=%d, threads=%d) = %d, want %d",
				c.m, c.k, c.d, c.threads, got, c.want)
		}
	}
}

// BenchmarkNearestRows times one flush's distance computation at both
// precisions at the benchmark's request shapes, with the assembly
// kernels on and off: d16 (4 rows, k=100, d=16), d32 (64 rows, k=1000,
// d=32), a d32 shard (64 rows, k=500) and k10000d64 (64 rows, k=10000,
// d=64), whose panel takes several column blocks. knorbench -exp
// kernels times Dgemm + scan beside it.
func BenchmarkNearestRows(b *testing.B) {
	b.Run("float64", benchNearestRows[float64])
	b.Run("float32", benchNearestRows[float32])
}

func benchNearestRows[T blas.Float](b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, d int
	}{{"d16", 4, 100, 16}, {"d32", 64, 1000, 32}, {"d32shard", 64, 500, 32}, {"k10000d64", 64, 10000, 64}} {
		rng := rand.New(rand.NewSource(51))
		a := sqDistInput[T](rng, sh.m*sh.d, 0)
		c := sqDistInput[T](rng, sh.k*sh.d, 0)
		normsSq := make([]T, sh.k)
		blas.RowNormsSq(c, sh.k, sh.d, normsSq)
		var p blas.Panel[T]
		p.Build(c, sh.k, sh.d)
		best, idx := make([]T, sh.m), make([]int32, sh.m)
		for _, asm := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, map[bool]string{true: "asm", false: "go"}[asm]), func(b *testing.B) {
				if asm && !blas.AsmSupported() {
					b.Skip("no assembly kernels on this build")
				}
				prev := blas.SetAsmEnabled(asm)
				defer blas.SetAsmEnabled(prev)
				for b.Loop() {
					blas.NearestRows(a, sh.m, &p, normsSq, best, idx, 1)
				}
			})
		}
	}
}

// BenchmarkPanelBuild times rebuilding the d32 model's panel, which a
// batcher pays whenever a flush names another snapshot; Dgemm's
// per-call pack of the same matrix is the cost it replaces.
func BenchmarkPanelBuild(b *testing.B) {
	const k, d = 1000, 32
	c := fillF64(rand.New(rand.NewSource(52)), k*d)
	var p blas.Panel[float64]
	for b.Loop() {
		p.Build(c, k, d)
	}
}
