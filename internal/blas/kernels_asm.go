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

// dgemmBlockAsm computes rows [rlo, rhi) of C += alpha*A*Bᵀ through
// T's tile kernel. Same blocking as dgemmBlock; the j0/p0 loops are
// hoisted outside i0 so each packed panel is reused across all row
// blocks of the stripe. Per output element only the p0 order matters
// (ascending, as in the reference), so the interchange is
// arithmetic-neutral: at float64 the kernel's unfused per-lane schedule
// makes this path bit-identical to dgemmBlock (the parity tests assert
// it), so dispatch may flip freely, and at float32 it keeps
// dgemmBlock32's contracts.
func dgemmBlockAsm[T Float](alpha T, a []T, m, k int, b []T, n int, c []T, rlo, rhi int) {
	lanes := packLanes[T]()
	pack := make([]T, blockDim*roundUp(min(blockDim, n), lanes))
	for j0 := 0; j0 < n; j0 += blockDim {
		jMax := min(j0+blockDim, n)
		jl := jMax - j0
		ldp := roundUp(jl, lanes)
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
					panelTile(alpha, a0, a1, &pack[0], c0, c1, jl, ldp, kl, rows)
				}
			}
		}
	}
}

// panelTile adds alpha·Σ_p a_r[p]·t[p·ld+j] into c_r[j] for j < jn,
// p < kl and the rows r < rows through T's tile kernel (gemmKern32 or
// gemmKern64). t is a packed panel as above, or a Panel read in place:
// the same layout with ldp = ld, widened to all of its columns.
func panelTile[T Float](alpha T, a0, a1, t, c0, c1 *T, jn, ld, kl, rows int) {
	if a, ok := any(a0).(*float32); ok {
		gemmKern32(a, any(a1).(*float32), any(t).(*float32), any(c0).(*float32), any(c1).(*float32),
			jn, ld, kl, rows, float32(alpha))
		return
	}
	gemmKern64(any(a0).(*float64), any(a1).(*float64), any(t).(*float64), any(c0).(*float64), any(c1).(*float64),
		jn, ld, kl, rows, float64(alpha))
}
