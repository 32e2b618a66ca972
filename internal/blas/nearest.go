package blas

import "sync"

// panelBlockBytes is the byte budget of one column block of a Panel.
// NearestRows runs every row of a stripe against one block before it
// moves to the next, so the block is read from cache by each row pair
// instead of the whole d×k panel streaming from memory per pair. A
// block is all k columns when the panel fits, which keeps the
// benchmark's float64 flushes (up to 250 KiB, 64×1000×32) one block;
// otherwise it is the largest multiple of blockDim columns that fits.
// EXPERIMENTS.md §Block-free float64 flush has the sweep behind 256 KiB.
const panelBlockBytes = 256 << 10

// Panel is a k×d centroid matrix laid out for NearestRows: element
// [p][j] of its d×ld table is centroid j's coordinate p, with ld = k
// rounded up to the vector width and the pad columns zeroed. That is
// the layout the Dgemm driver packs one 64×64 block at a time
// (kernels_asm.go), widened to all k columns, so the tile kernels read
// it in place, one column block of kb columns at a time. A Panel also
// keeps the row-major matrix, which the Go path reads, and the 2×kb
// accumulator that one pair of query rows' dot terms over one block go
// to. It is not safe for concurrent use.
type Panel[T Float] struct {
	k, d, ld, kb int
	c            []T // k×d row-major centroids, as passed to Build
	t            []T // d×ld transposed centroids
	acc          []T // 2×kb dot terms of one row pair over one block
}

// Build lays the k×d row-major matrix c out in p, reusing p's storage
// when it is large enough. It copies in the pack loop's 64×64 blocks,
// four centroid rows at a time so each coordinate's four values land
// side by side: a rebuild costs less than Dgemm's per-call pack of the
// same matrix did. p keeps c, which must not change while p is in use.
func (p *Panel[T]) Build(c []T, k, d int) {
	if len(c) < k*d {
		panic("blas: Panel.Build size mismatch")
	}
	ld := roundUp(k, packLanes[T]())
	kb := k
	if colBytes := d * ElemBytes[T](); k > blockDim && k*colBytes > panelBlockBytes {
		kb = max(blockDim, panelBlockBytes/colBytes/blockDim*blockDim)
	}
	p.k, p.d, p.ld, p.kb, p.c = k, d, ld, kb, c[:k*d]
	p.t = resize(p.t, d*ld)
	p.acc = resize(p.acc, 2*kb)
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
func resize[T Float](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NearestRows sets idx[i] to the nearest centroid of row i of the m×d
// row-major matrix a, and best[i] to its value of the GEMM distance
// identity ‖aᵢ‖² + ‖cⱼ‖² − 2·aᵢ·cⱼ, where normsSq[j] = ‖cⱼ‖². Both are
// bit for bit what Dgemm(−2, …, beta = 1) into a zeroed m×k block and
// a strict-< scan from j = 0 give, without the block. For each pair of
// rows and each column block the tile kernel of T's width, the one
// Dgemm runs, adds every 64-wide p block's −2·aᵢ·cⱼ into the panel's
// accumulator in Dgemm's block order, and the argmin adds
// (acc + ‖aᵢ‖²) + ‖cⱼ‖² and carries the first smallest into the next
// block. A flush that SplitThreads splits runs in contiguous row
// stripes across threads goroutines, each with its own accumulator;
// others run on the calling goroutine.
func NearestRows[T Float](a []T, m int, p *Panel[T], normsSq, best []T, idx []int32, threads int) {
	k, d := p.k, p.d
	if len(a) < m*d || len(normsSq) < k || len(best) < m || len(idx) < m {
		panic("blas: NearestRows size mismatch")
	}
	if m == 0 {
		return
	}
	threads = SplitThreads(m, k, d, threads)
	if threads == 1 {
		p.nearestRange(a, normsSq, best, idx, p.acc, 0, m)
		return
	}
	var wg sync.WaitGroup
	stripe := (m + threads - 1) / threads
	for lo := stripe; lo < m; lo += stripe {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.nearestRange(a, normsSq, best, idx, make([]T, 2*p.kb), lo, hi)
		}(lo, min(lo+stripe, m))
	}
	p.nearestRange(a, normsSq, best, idx, p.acc, 0, stripe)
	wg.Wait()
}

// nearestRange answers rows [lo, hi) of NearestRows into the 2×kb
// accumulator acc, one column block at a time: every row pair of the
// stripe runs against a block before the next block starts, and best
// and idx carry each row's running answer from block to block. The Go
// path runs dgemmGo, Dgemm's own kernel at T's width, on the row pair
// and the block's row-major centroids.
func (p *Panel[T]) nearestRange(a, normsSq, best []T, idx []int32, acc []T, lo, hi int) {
	asm := dispatchAsm[T]()
	k, d, ld := p.k, p.d, p.ld
	for j0 := 0; j0 < k; j0 += p.kb {
		jn := min(p.kb, k-j0)
		acc0, acc1 := acc[:jn], acc[jn:2*jn]
		norms := normsSq[j0 : j0+jn]
		for i := lo; i < hi; i += 2 {
			rows := min(2, hi-i)
			a0 := a[i*d : (i+1)*d]
			a1 := a0
			if rows == 2 {
				a1 = a[(i+1)*d : (i+2)*d]
			}
			clear(acc[:rows*jn])
			if asm {
				for p0 := 0; p0 < d; p0 += blockDim {
					pMax := min(p0+blockDim, d)
					panelTile(-2, &a0[p0], &a1[p0], &p.t[p0*ld+j0], &acc0[0], &acc1[0], jn, ld, pMax-p0, rows)
				}
			} else {
				dgemmGo(-2, a[i*d:(i+rows)*d], rows, d, p.c[j0*d:(j0+jn)*d], jn, acc, 0, rows)
			}
			best[i], idx[i] = nearestOf(acc0, norms, Dnrm2Sq(a0), best[i], idx[i], j0, asm)
			if rows == 2 {
				best[i+1], idx[i+1] = nearestOf(acc1, norms, Dnrm2Sq(a1), best[i+1], idx[i+1], j0, asm)
			}
		}
	}
}

// nearestOf is the scan over one row's dot terms in the column block
// that starts at centroid j0: v = (acc[j] + an) + normsSq[j] replaces
// the carried entry (best, bi) only when strictly smaller, so the
// lowest index wins a tie (−0 ties +0), a NaN best stays and no later
// NaN wins. The first block ignores the carry and starts from its own
// (v₀, 0). With asm, a float64 row's leading multiple of 8 centroids
// run through the AVX2 kernel, which starts every lane from best, so
// an answer below best is a move; this loop finishes the block.
func nearestOf[T Float](acc, normsSq []T, an, best T, bi int32, j0 int, asm bool) (T, int32) {
	normsSq = normsSq[:len(acc)]
	if j0 == 0 {
		best, bi = acc[0]+an+normsSq[0], 0
	}
	j := 0
	if acc64, ok := any(acc).([]float64); ok && asm {
		if b, i, n := argminAsm64(acc64, any(normsSq).([]float64), float64(an), float64(best)); n > 0 {
			if T(b) < best {
				best, bi = T(b), int32(j0+i)
			}
			j = n
		}
	}
	for ; j < len(acc); j++ {
		if v := acc[j] + an + normsSq[j]; v < best {
			best, bi = v, int32(j0+j)
		}
	}
	return best, bi
}
