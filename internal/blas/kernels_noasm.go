//go:build noasm || (!amd64 && !arm64)

package blas

// Pure-Go stand-ins for the assembly drivers on architectures without
// kernels (or under the noasm build tag). asmEnabled can never be set on
// these builds — no init flips asmSupported — so the bodies are
// unreachable through dispatch, but delegating keeps them honest if ever
// called directly (the differential tests do).

func dgemmBlockAsm[T Float](alpha T, a []T, m, k int, b []T, n int, c []T, rlo, rhi int) {
	dgemmGo(alpha, a, m, k, b, n, c, rlo, rhi)
}

func sqDistRowsAsm64(x, y []float64, n int, out []float64) int { return 0 }

// panelTile has no Go body: NearestRows runs dgemmGo instead whenever
// the assembly is off.
func panelTile[T Float](alpha T, a0, a1, t, c0, c1 *T, jn, ld, kl, rows int) {
	panic("blas: no assembly kernels on this build")
}

func argminAsm64(acc, normsSq []float64, an, v0 float64) (float64, int, int) { return 0, 0, 0 }
