//go:build amd64 && !noasm

package blas

// CPU feature probe for the AVX2/FMA microkernels, hand-rolled (the
// module has no dependencies, so no golang.org/x/sys/cpu): AVX2 is
// CPUID.(EAX=7,ECX=0):EBX[5], FMA is CPUID.(EAX=1):ECX[12], and both are
// usable only when the OS saves YMM state (OSXSAVE + XCR0[2:1] = 11).

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if c1&fma == 0 || c1&osxsave == 0 {
		return
	}
	if ax, _ := xgetbv(); ax&0x6 != 0x6 { // XMM and YMM state enabled
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	if b7&avx2 == 0 {
		return
	}
	asmSupported = true
	kernelName = "avx2fma"
	asmEnabled.Store(true)
}

// gemmKern32 accumulates one register tile: for r in {0,1} (r=1 only
// when rows == 2), c_r[j] += alpha * Σ_p a_r[p]·pack[p*ldp+j] for
// j ∈ [0, jn). pack is the zero-padded column-major-in-p B-transpose
// panel (ldp a multiple of 8 ≥ jn); loads beyond jn read the zero pad,
// stores beyond jn are masked off. Per output element the accumulation
// is a p-ascending FMA chain — position inside the tile (wide body,
// 8-wide tail, masked tail) never changes a lane's arithmetic, which is
// what keeps the column-slice invariance contract (see dgemmBlock32).
//
//go:noescape
func gemmKern32(a0, a1, pack, c0, c1 *float32, jn, ldp, kl, rows int, alpha float32)

// gemmKern64 is the float64 tile. It deliberately uses separate VMULPD
// and VADDPD (no FMA): per lane the accumulation is exactly the scalar
// reference's s += a[p]*b[p] rounding sequence in p order, followed by
// the same alpha-multiply-then-add store — so the float64 assembly path
// is bit-identical to dgemmBlock, preserving the oracle contract.
//
//go:noescape
func gemmKern64(a0, a1, pack, c0, c1 *float64, jn, ldp, kl, rows int, alpha float64)

// sqDistKern64 fills out[j] = Σ_{p<dl} (x[p] − y[j·ld+p])² for
// j ∈ [0, n): n a multiple of 8, dl a positive multiple of 4. Separate
// VSUBPD, VMULPD and VADDPD, one accumulator lane per row, columns
// added in ascending p: each lane repeats matrix.SqDist's rounding
// sequence.
//
//go:noescape
func sqDistKern64(x, y *float64, ld, dl, n int, out *float64)

// sqDistRowsAsm64 fills out[j] for the first n&^7 rows with the AVX2
// kernel and returns how many rows it filled; SqDistRows runs the Go
// loop over the rest. The kernel covers the columns below d&^3, and the
// remaining d mod 4 columns continue each row's sum in the same order.
func sqDistRowsAsm64(x, y []float64, n int, out []float64) int {
	d := len(x)
	dl, n8 := d&^3, n&^7
	if dl == 0 || n8 == 0 {
		return 0
	}
	sqDistKern64(&x[0], &y[0], d, dl, n8, &out[0])
	if dl == d {
		return n8
	}
	for j := 0; j < n8; j++ {
		row := y[j*d : (j+1)*d]
		s := out[j]
		for p := dl; p < d; p++ {
			v := x[p] - row[p]
			s += v * v
		}
		out[j] = s
	}
	return n8
}

// argminKern64 returns the scan's answer over j ∈ [0, n), n a positive
// multiple of 8: the first j with the smallest v = (acc[j] + an) +
// normsSq[j], starting from (v0, 0) and moving only on a strictly
// smaller v. Eight lanes each run that rule from (v0, 0), then merge by
// smaller value and then lower index (see kernels_amd64.s).
//
//go:noescape
func argminKern64(acc, normsSq *float64, an, v0 float64, n int) (best float64, idx int)

// argminAsm64 runs argminKern64 over the first len(acc)&^7 centroids and
// returns its answer and how many centroids it covered (0 when none);
// nearestOf's Go loop continues the scan from there.
func argminAsm64(acc, normsSq []float64, an, v0 float64) (best float64, idx, n int) {
	n = len(acc) &^ 7
	if n == 0 {
		return 0, 0, 0
	}
	best, idx = argminKern64(&acc[0], &normsSq[0], an, v0, n)
	return best, idx, n
}
