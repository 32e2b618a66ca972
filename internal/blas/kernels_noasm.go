//go:build noasm || (!amd64 && !arm64)

package blas

// Pure-Go stand-ins for the assembly drivers on architectures without
// kernels (or under the noasm build tag). asmEnabled can never be set on
// these builds — no init flips asmSupported — so the bodies are
// unreachable through dispatch, but delegating keeps them honest if ever
// called directly (the differential tests do).

func dgemmBlockAsm32(alpha float32, a []float32, m, k int, b []float32, n int, c []float32, rlo, rhi int) {
	dgemmBlock32(alpha, a, m, k, b, n, c, rlo, rhi)
}

func dgemmBlockAsm64(alpha float64, a []float64, m, k int, b []float64, n int, c []float64, rlo, rhi int) {
	dgemmBlock(alpha, a, m, k, b, n, c, rlo, rhi)
}

func sqDistRowsAsm64(x, y []float64, n int, out []float64) int { return 0 }

// panelTileAsm64 has no Go body: NearestRows runs dgemmBlock instead
// whenever the assembly is off.
func panelTileAsm64(alpha float64, a0, a1, t, c0, c1 []float64, jn, ld, rows int) {
	panic("blas: no assembly kernels on this build")
}

func argminAsm64(acc, normsSq []float64, an, v0 float64) (float64, int, int) { return 0, 0, 0 }
