package serve

import (
	"math"

	"knor/internal/blas"
)

// Quantized assignment: scan every centroid with an int8×int8→int32
// kernel, keep the candidates whose quantization error interval could
// contain the minimum, and re-rank just those exactly in float32. The
// answers are bit-identical to the exact float32 path — including
// lowest-index tie-breaks — because the candidate rule is sound (every
// true minimum, tied or not, is always a candidate; proof below) and
// the re-rank reuses Dgemm, whose column-slice invariance makes the
// gathered candidates' distances bitwise equal to the full scan's.
//
// Error algebra. Query x and centroid c quantize as x = s_x·q_x + e_x,
// c = s_c·q_c + e_c with |e| ≤ s/2 per element (round-to-nearest
// symmetric int8, blas.QuantizeRows). Expanding x·c:
//
//	|x·c − s_x·s_c·(q_x·q_c)| ≤ (s_x/2)·s_c·Σ|q_c| + s_x·Σ|q_x|·(s_c/2) + d·(s_x·s_c/4)
//	                          = s_x·s_c·(A_c/2 + A_x/2 + d/4)
//
// with A = Σ|q| (QuantizedRows.AbsSum). The distance estimate
// ṽ = −2·s_x·s_c·(q_x·q_c) + ‖x‖² + ‖c‖² therefore satisfies
// |v_real − ṽ| ≤ 2·s_x·s_c·(A_x/2 + A_c/2 + d/4). The exact path's
// float32 value v₃₂ additionally differs from v_real by rounding: the
// length-d inner product, the two norms and their adds accumulate at
// most (d+6)·ε₃₂ relative to Σ|2·x·c| + ‖x‖² + ‖c‖², and 2Σ|x·c| ≤
// 2‖x‖‖c‖ + … ≤ 2(‖x‖²+‖c‖²) by AM–GM, so (d+6)·ε₃₂·3(‖x‖²+‖c‖²)
// covers it. E below is the sum of both bounds with a 1.001 safety
// multiplier; j is a candidate iff ṽ_j − E_j ≤ min_l(ṽ_l + E_l).
//
// Soundness: for every j, ṽ_j + E_j ≥ v₃₂_j ≥ v₃₂_min, and any true
// minimum l (every bitwise tie included) has ṽ_l − E_l ≤ v₃₂_l =
// v₃₂_min ≤ min_j(ṽ_j + E_j) — so l passes the rule. Non-candidates
// have v₃₂ strictly above the minimum and cannot affect the argmin or
// its tie-break.

const eps32 = 1.0 / (1 << 24) // float32 unit roundoff

// rerankCap bounds the exact re-rank's candidate set per query row; a
// row whose margin check leaves more candidates falls back to a full
// exact scan, counted in knor_serve_quant_rerank_fallbacks_total.
const rerankCap = 32

// quantOf returns the snapshot's int8-quantized centroid mirror,
// building it (and the float32 mirror it derives from) on first use.
func quantOf(m *Model) *blas.QuantizedRows {
	c32, _ := centroidsOf[float32](m)
	m.quantOnce.Do(func() {
		m.q8 = blas.QuantizeRows(c32.Data, c32.Rows(), c32.Cols())
	})
	return m.q8
}

// assignBlockQuant is the quantized counterpart of assignGemm for the
// float32 path. A row whose margin check leaves more than rerankCap
// candidates falls back to a full exact scan of its distance row,
// counted in the returned fallback total. raw skips the cancellation
// clamp, as a Shard batcher does.
func assignBlockQuant(a []float32, m int, snap *Model, threads int, raw bool) ([]Assignment, int) {
	k, d := snap.K(), snap.Dims()
	cents, normsSq := centroidsOf[float32](snap)
	q8 := quantOf(snap)
	qq := blas.QuantizeRows(a, m, d)
	dots := make([]int32, m*k)
	blas.Gemm8(qq.Data, m, d, q8.Data, k, dots, threads)
	an := make([]float32, m)
	blas.RowNormsSq(a, m, d, an)

	out := make([]Assignment, m)
	lb := make([]float64, k)
	cand := make([]int, 0, rerankCap)
	cbuf := make([]float32, rerankCap*d)
	crow := make([]float32, rerankCap)
	fallbacks := 0
	for i := 0; i < m; i++ {
		sx := qq.Scale[i]
		ax := float64(qq.AbsSum[i])
		ani := float64(an[i])
		drow := dots[i*k : (i+1)*k]
		minUB := math.Inf(1)
		for j := 0; j < k; j++ {
			sc := q8.Scale[j]
			nj := float64(normsSq[j])
			approx := -2*sx*sc*float64(drow[j]) + ani + nj
			e := (2*sx*sc*(ax/2+float64(q8.AbsSum[j])/2+float64(d)/4) +
				3*eps32*float64(d+6)*(ani+nj)) * 1.001
			if ub := approx + e; ub < minUB {
				minUB = ub
			}
			lb[j] = approx - e
		}
		overflow := false
		cand = cand[:0]
		for j := 0; j < k; j++ {
			if lb[j] <= minUB {
				if len(cand) == rerankCap {
					overflow = true
					break
				}
				cand = append(cand, j)
			}
		}
		arow := a[i*d : (i+1)*d]
		var best float32
		var bi int
		if overflow {
			// Margin too loose for a bounded re-rank: full exact row,
			// identical to assignGemm's scan.
			fallbacks++
			full := make([]float32, k)
			blas.Dgemm(-2, arow, 1, d, cents.Data, k, 0, full, 1)
			best, bi = full[0]+an[i]+normsSq[0], 0
			for j := 1; j < k; j++ {
				if v := full[j] + an[i] + normsSq[j]; v < best {
					best, bi = v, j
				}
			}
		} else {
			// Exact re-rank of the gathered candidates: Dgemm's
			// column-slice invariance makes these values bitwise equal
			// to the full scan's, and candidates ascend in j, so the
			// strict-< scan reproduces the lowest-index tie-break.
			for t, j := range cand {
				copy(cbuf[t*d:(t+1)*d], cents.Data[j*d:(j+1)*d])
			}
			nc := len(cand)
			clear(crow[:nc])
			blas.Dgemm(-2, arow, 1, d, cbuf[:nc*d], nc, 0, crow[:nc], 1)
			best, bi = crow[0]+an[i]+normsSq[cand[0]], cand[0]
			for t := 1; t < nc; t++ {
				if v := crow[t] + an[i] + normsSq[cand[t]]; v < best {
					best, bi = v, cand[t]
				}
			}
		}
		if best < 0 && !raw {
			best = 0
		}
		out[i] = Assignment{Cluster: int32(bi), SqDist: float64(best), Version: snap.Version}
	}
	return out, fallbacks
}
