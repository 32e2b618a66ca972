//go:build arm64 && !noasm

package blas

// NEON (Advanced SIMD) is baseline on arm64 — no feature probe needed.
func init() {
	asmSupported = true
	kernelName = "neon"
	asmEnabled.Store(true)
}

// gemmKern32 — see kernels_amd64.go for the full contract. The NEON
// variant uses vector FMLA and scalar FMADDS uniformly: on arm64 the Go
// compiler itself fuses s += a*b (and c += alpha*s) into FMADD, so the
// fused kernels match the pure-Go schedules' per-element rounding.
//
//go:noescape
func gemmKern32(a0, a1, pack, c0, c1 *float32, jn, ldp, kl, rows int, alpha float32)

// gemmKern64 is the float64 tile. Fused FMLA/FMADDD throughout, which on
// arm64 is exactly the reference dgemmBlock's codegen — the float64
// assembly path stays bit-identical to the pure-Go kernel per platform
// (the differential tests assert it on whatever hardware they run on).
//
//go:noescape
func gemmKern64(a0, a1, pack, c0, c1 *float64, jn, ldp, kl, rows int, alpha float64)

// sqDistRowsAsm64 has no NEON kernel: SqDistRows runs its Go loop over
// every row.
func sqDistRowsAsm64(x, y []float64, n int, out []float64) int { return 0 }

// argminAsm64 has no NEON kernel: nearestOf runs its Go loop over every
// centroid.
func argminAsm64(acc, normsSq []float64, an, v0 float64) (float64, int, int) { return 0, 0, 0 }
