//go:build (amd64 || arm64) && !noasm

package blas

// Pack-panel drivers for the assembly microkernels. They keep the
// reference cache blocking — p0 ascends per output element, every block
// is blockDim-edged — but pack each (j0, p0) panel of Bᵀ into a dense
// pack[p*ldp+j] layout so the kernel's column loads are contiguous. ldp
// is rounded up to the SIMD lane count and the pad columns are zeroed:
// full-width loads past jl read zeros (which contribute +0 to lanes the
// masked store then discards), so the kernel never reads or writes out
// of bounds and every real column's arithmetic is independent of its
// position in the tile.

// dgemmBlockAsm32 computes rows [rlo, rhi) of C += alpha*A*Bᵀ via
// gemmKern32. Same blocking as dgemmBlock32; the j0/p0 loops are hoisted
// outside i0 so each packed panel is reused across all row blocks of the
// stripe. Per output element only the p0 order matters (ascending, as in
// the reference), so the interchange is arithmetic-neutral.
func dgemmBlockAsm32(alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rlo, rhi int) {
	pack := make([]float32, blockDim*roundUp(min(blockDim, n), packLanes32))
	for j0 := 0; j0 < n; j0 += blockDim {
		jMax := min(j0+blockDim, n)
		jl := jMax - j0
		ldp := roundUp(jl, packLanes32)
		for p0 := 0; p0 < k; p0 += blockDim {
			pMax := min(p0+blockDim, k)
			kl := pMax - p0
			if ldp != jl {
				clear(pack[:kl*ldp])
			}
			for j := 0; j < jl; j++ {
				brow := b[(j0+j)*k+p0 : (j0+j)*k+pMax]
				for p, v := range brow {
					pack[p*ldp+j] = v
				}
			}
			for i0 := rlo; i0 < rhi; i0 += blockDim {
				iMax := min(i0+blockDim, rhi)
				for i := i0; i < iMax; i += 2 {
					a0, c0 := &a[i*k+p0], &c[i*n+j0]
					a1, c1, rows := a0, c0, 1
					if i+1 < iMax {
						a1, c1, rows = &a[(i+1)*k+p0], &c[(i+1)*n+j0], 2
					}
					gemmKern32(a0, a1, &pack[0], c0, c1, jl, ldp, kl, rows, alpha)
				}
			}
		}
	}
}

// dgemmBlockAsm64 is the float64 driver over gemmKern64. The kernel's
// unfused per-lane schedule makes this path bit-identical to dgemmBlock
// (the parity tests assert it), so dispatch may flip freely.
func dgemmBlockAsm64(alpha float64, a []float64, m, k int, b []float64, n int, c []float64, rlo, rhi int) {
	pack := make([]float64, blockDim*roundUp(min(blockDim, n), packLanes64))
	for j0 := 0; j0 < n; j0 += blockDim {
		jMax := min(j0+blockDim, n)
		jl := jMax - j0
		ldp := roundUp(jl, packLanes64)
		for p0 := 0; p0 < k; p0 += blockDim {
			pMax := min(p0+blockDim, k)
			kl := pMax - p0
			if ldp != jl {
				clear(pack[:kl*ldp])
			}
			for j := 0; j < jl; j++ {
				brow := b[(j0+j)*k+p0 : (j0+j)*k+pMax]
				for p, v := range brow {
					pack[p*ldp+j] = v
				}
			}
			for i0 := rlo; i0 < rhi; i0 += blockDim {
				iMax := min(i0+blockDim, rhi)
				for i := i0; i < iMax; i += 2 {
					a0, c0 := &a[i*k+p0], &c[i*n+j0]
					a1, c1, rows := a0, c0, 1
					if i+1 < iMax {
						a1, c1, rows = &a[(i+1)*k+p0], &c[(i+1)*n+j0], 2
					}
					gemmKern64(a0, a1, &pack[0], c0, c1, jl, ldp, kl, rows, alpha)
				}
			}
		}
	}
}

// panelTileAsm64 adds alpha·Σ_p a_r[p]·t[p·ld+j] into c_r[j] for
// j < jn, p < len(a0) and the rows r < rows through gemmKern64, which
// reads a Panel in place: it is the pack layout above with ldp = ld,
// widened to all jn columns.
func panelTileAsm64(alpha float64, a0, a1, t, c0, c1 []float64, jn, ld, rows int) {
	gemmKern64(&a0[0], &a1[0], &t[0], &c0[0], &c1[0], jn, ld, len(a0), rows, alpha)
}
