package blas

import "sync"

// Panel is a k×d float64 centroid matrix laid out for NearestRows:
// element [p][j] of its d×ld table is centroid j's coordinate p, with
// ld = k rounded up to the vector width and the pad columns zeroed.
// That is the layout the Dgemm driver packs one 64×64 block at a time
// (kernels_asm.go), widened to all k columns, so the tile kernel reads
// it in place. A Panel also keeps the row-major matrix, which the Go
// path reads, and the 2×k accumulator that one pair of query rows' dot
// terms go to. It is not safe for concurrent use.
type Panel struct {
	k, d, ld int
	c        []float64 // k×d row-major centroids, as passed to Build
	t        []float64 // d×ld transposed centroids
	acc      []float64 // 2×k dot terms of one row pair
}

// Build lays the k×d row-major matrix c out in p, reusing p's storage
// when it is large enough. It copies in the pack loop's 64×64 blocks,
// four centroid rows at a time so each coordinate's four values land
// side by side: a rebuild costs less than Dgemm's per-call pack of the
// same matrix did. p keeps c, which must not change while p is in use.
func (p *Panel) Build(c []float64, k, d int) {
	if len(c) < k*d {
		panic("blas: Panel.Build size mismatch")
	}
	ld := roundUp(k, packLanes64)
	p.k, p.d, p.ld, p.c = k, d, ld, c[:k*d]
	p.t = resize(p.t, d*ld)
	p.acc = resize(p.acc, 2*k)
	t := p.t
	for j0 := 0; j0 < k; j0 += blockDim {
		jMax := min(j0+blockDim, k)
		for p0 := 0; p0 < d; p0 += blockDim {
			pMax := min(p0+blockDim, d)
			j := j0
			for ; j+4 <= jMax; j += 4 {
				r0 := c[j*d+p0 : j*d+pMax]
				r1 := c[(j+1)*d+p0 : (j+1)*d+pMax][:len(r0)]
				r2 := c[(j+2)*d+p0 : (j+2)*d+pMax][:len(r0)]
				r3 := c[(j+3)*d+p0 : (j+3)*d+pMax][:len(r0)]
				for q, v := range r0 {
					dst := t[(p0+q)*ld+j : (p0+q)*ld+j+4]
					dst[0], dst[1], dst[2], dst[3] = v, r1[q], r2[q], r3[q]
				}
			}
			for ; j < jMax; j++ {
				for q, v := range c[j*d+p0 : j*d+pMax] {
					t[(p0+q)*ld+j] = v
				}
			}
		}
	}
	for q := 0; q < d; q++ {
		clear(t[q*ld+k : (q+1)*ld])
	}
}

// resize returns s with length n, reallocating only when it is too
// short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NearestRows sets idx[i] to the nearest centroid of row i of the m×d
// row-major matrix a, and best[i] to its value of the GEMM distance
// identity ‖aᵢ‖² + ‖cⱼ‖² − 2·aᵢ·cⱼ, where normsSq[j] = ‖cⱼ‖². Both are
// bit for bit what Dgemm(−2, …, beta = 1) into a zeroed m×k block and
// a strict-< scan from j = 0 give, without the block. For each pair of
// rows the tile kernel adds every 64-wide p block's −2·aᵢ·cⱼ into the
// panel's accumulator in Dgemm's block order, and the argmin adds
// (acc + ‖aᵢ‖²) + ‖cⱼ‖² and keeps the first smallest. A flush that
// SplitThreads splits runs in contiguous row stripes across threads
// goroutines, each with its own accumulator; others run on the calling
// goroutine.
func NearestRows(a []float64, m int, p *Panel, normsSq, best []float64, idx []int32, threads int) {
	k, d := p.k, p.d
	if len(a) < m*d || len(normsSq) < k || len(best) < m || len(idx) < m {
		panic("blas: NearestRows size mismatch")
	}
	if m == 0 {
		return
	}
	asm := asmEnabled.Load()
	if asm {
		telGemmAsm64.Inc()
	} else {
		telGemmGo64.Inc()
	}
	threads = SplitThreads(m, k, d, threads)
	if threads == 1 {
		p.nearestRange(a, normsSq, best, idx, p.acc, 0, m, asm)
		return
	}
	var wg sync.WaitGroup
	stripe := (m + threads - 1) / threads
	for lo := stripe; lo < m; lo += stripe {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.nearestRange(a, normsSq, best, idx, make([]float64, 2*k), lo, hi, asm)
		}(lo, min(lo+stripe, m))
	}
	p.nearestRange(a, normsSq, best, idx, p.acc, 0, stripe, asm)
	wg.Wait()
}

// nearestRange answers rows [lo, hi) of NearestRows into the 2×k
// accumulator acc. The Go path runs dgemmBlock, Dgemm's own reference
// schedule, on the row pair and the row-major centroids.
func (p *Panel) nearestRange(a, normsSq, best []float64, idx []int32, acc []float64, lo, hi int, asm bool) {
	k, d, ld := p.k, p.d, p.ld
	acc0, acc1 := acc[:k], acc[k:2*k]
	for i := lo; i < hi; i += 2 {
		rows := min(2, hi-i)
		a0 := a[i*d : (i+1)*d]
		a1 := a0
		if rows == 2 {
			a1 = a[(i+1)*d : (i+2)*d]
		}
		clear(acc[:rows*k])
		if asm {
			for p0 := 0; p0 < d; p0 += blockDim {
				pMax := min(p0+blockDim, d)
				panelTileAsm64(-2, a0[p0:pMax], a1[p0:pMax], p.t[p0*ld:pMax*ld], acc0, acc1, k, ld, rows)
			}
		} else {
			dgemmBlock(-2, a[i*d:(i+rows)*d], rows, d, p.c, k, acc, 0, rows)
		}
		best[i], idx[i] = nearestOf(acc0, normsSq, Dnrm2Sq(a0), asm)
		if rows == 2 {
			best[i+1], idx[i+1] = nearestOf(acc1, normsSq, Dnrm2Sq(a1), asm)
		}
	}
}

// nearestOf is the scan over one row's dot terms: v = (acc[j] + an) +
// normsSq[j], starting from (v₀, 0) and moving only on a strictly
// smaller v, so the lowest index wins a tie (−0 ties +0), a NaN v₀
// answers (NaN, 0) and no later NaN wins. With asm the AVX2 kernel
// scans the leading multiple of 8 centroids and this loop finishes the
// row.
func nearestOf(acc, normsSq []float64, an float64, asm bool) (float64, int32) {
	normsSq = normsSq[:len(acc)]
	best, bi := acc[0]+an+normsSq[0], 0
	j := 1
	if asm {
		if b, i, n := argminAsm64(acc, normsSq, an, best); n > 0 {
			best, bi, j = b, i, n
		}
	}
	for ; j < len(acc); j++ {
		if v := acc[j] + an + normsSq[j]; v < best {
			best, bi = v, j
		}
	}
	return best, int32(bi)
}
