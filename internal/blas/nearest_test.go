package blas_test

import (
	"math/rand"
	"testing"

	"knor/internal/blas"
)

// gemmScan is the answer NearestRows must reproduce: Dgemm(−2, …,
// beta = 1) into a zeroed m×k block, then a strict-< scan of
// (block + ‖aᵢ‖²) + ‖cⱼ‖² from j = 0.
func gemmScan(a []float64, m, d int, c []float64, k int, normsSq []float64) ([]float64, []int32) {
	dist := make([]float64, m*k)
	blas.Dgemm(-2, a, m, d, c, k, 1, dist, 1)
	an := make([]float64, m)
	blas.RowNormsSq(a, m, d, an)
	best, idx := make([]float64, m), make([]int32, m)
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

// FuzzNearestRowsParity holds NearestRows, with the assembly on and
// off and at 1 and 3 threads, to Dgemm + scan over fuzzed shapes (d > 64
// takes more than one p block, and m·k·d ≥ 2^20 splits the rows) and
// inputs salted with the SqDistRows specials. Every row must
// get the same centroid and value; two NaNs count as equal, since an
// input NaN's payload is the hardware's choice.
func FuzzNearestRowsParity(f *testing.F) {
	f.Add(int64(1), 3, 5, 7)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 64, 100, 16)
	f.Add(int64(4), 5, 17, 65)
	f.Add(int64(5), 79, 300, 64)
	f.Fuzz(func(t *testing.T, seed int64, m, k, d int) {
		if m < 1 || k < 1 || d < 1 || m > 80 || k > 300 || d > 140 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := sqDistInput[float64](rng, m*d, 0.05)
		c := sqDistInput[float64](rng, k*d, 0.05)
		if k > 2 {
			copy(c[(k-1)*d:], c[d:2*d]) // an exact tie between centroids 1 and k-1
		}
		normsSq := make([]float64, k)
		blas.RowNormsSq(c, k, d, normsSq)
		wantV, wantI := gemmScan(a, m, d, c, k, normsSq)
		var p blas.Panel
		p.Build(c, k, d)
		for _, asm := range []bool{true, false} {
			for _, threads := range []int{1, 3} {
				best, idx := make([]float64, m), make([]int32, m)
				prev := blas.SetAsmEnabled(asm)
				blas.NearestRows(a, m, &p, normsSq, best, idx, threads)
				blas.SetAsmEnabled(prev)
				for i := range best {
					if idx[i] != wantI[i] || !sameBits(best[i], wantV[i]) {
						t.Fatalf("m=%d k=%d d=%d asm=%v threads=%d: row %d got (%v, %d), Dgemm+scan (%v, %d)",
							m, k, d, asm, threads, i, best[i], idx[i], wantV[i], wantI[i])
					}
				}
			}
		}
	})
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

// BenchmarkNearestRows times one float64 flush's distance computation
// at the benchmark's request shapes, with the assembly kernels on and
// off: d16 (4 rows, k=100, d=16), d32 (64 rows, k=1000, d=32) and a
// d32 shard (64 rows, k=500). knorbench -exp kernels times Dgemm + scan
// beside it.
func BenchmarkNearestRows(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, d int
	}{{"d16", 4, 100, 16}, {"d32", 64, 1000, 32}, {"d32shard", 64, 500, 32}} {
		rng := rand.New(rand.NewSource(51))
		a := fillF64(rng, sh.m*sh.d)
		c := fillF64(rng, sh.k*sh.d)
		normsSq := make([]float64, sh.k)
		blas.RowNormsSq(c, sh.k, sh.d, normsSq)
		var p blas.Panel
		p.Build(c, sh.k, sh.d)
		best, idx := make([]float64, sh.m), make([]int32, sh.m)
		for _, asm := range []bool{true, false} {
			kern := "go"
			if asm {
				kern = "asm"
			}
			b.Run(sh.name+"/"+kern, func(b *testing.B) {
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
	var p blas.Panel
	for b.Loop() {
		p.Build(c, k, d)
	}
}
