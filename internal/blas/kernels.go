package blas

import "sync/atomic"

// Kernel dispatch state. Each architecture's init (kernels_amd64.go,
// kernels_arm64.go) probes the CPU and, when the required features are
// present, flips asmEnabled so dgemmRange routes through the assembly
// microkernels. The pure-Go tiled kernels remain the guaranteed
// fallback: a `noasm` build tag (or an unsupported CPU) leaves the
// dispatch permanently on them, and SetAsmEnabled lets benchmarks and
// parity tests flip between the two paths in-process.
var (
	// asmSupported records the init-time CPU probe: true only when this
	// binary carries assembly kernels AND the CPU has the features they
	// need (AVX2+FMA on amd64, always-on NEON on arm64).
	asmSupported bool
	// asmEnabled is the live dispatch switch, on by default whenever
	// asmSupported. An atomic so SetAsmEnabled is safe against GEMMs in
	// flight (they may split between kernels mid-call, which both the
	// float32 ULP contract and the float64 bit-identity contract allow:
	// the two float64 schedules produce identical bits).
	asmEnabled atomic.Bool
	// kernelName names the active assembly flavour for diagnostics and
	// the bench harness ("avx2fma", "neon"); "go" when unsupported.
	kernelName = "go"
)

// AsmSupported reports whether this binary has assembly kernels usable
// on this CPU (false under the noasm build tag).
func AsmSupported() bool { return asmSupported }

// AsmEnabled reports whether Dgemm currently dispatches to the assembly
// kernels.
func AsmEnabled() bool { return asmEnabled.Load() }

// SetAsmEnabled switches kernel dispatch between the assembly and
// pure-Go paths, returning the previous setting. Enabling is a no-op
// when AsmSupported is false. This exists for the bench harness
// (asm-vs-go rows in BENCH_kernels.json) and differential tests; serving
// code never calls it.
func SetAsmEnabled(on bool) bool {
	prev := asmEnabled.Load()
	asmEnabled.Store(on && asmSupported)
	return prev
}

// KernelName names the assembly kernel flavour compiled in and usable on
// this CPU ("avx2fma", "neon"), or "go" when the pure-Go kernels are the
// only path.
func KernelName() string { return kernelName }

// Lanes per SIMD vector: the assembly drivers pad packed panels, and
// Panel its columns, to a multiple of these.
const (
	packLanes32 = 8 // float32 lanes per vector (AVX2 YMM / 2×NEON)
	packLanes64 = 4 // float64 lanes per vector
)

// roundUp rounds n up to a multiple of m (a power of two).
func roundUp(n, m int) int { return (n + m - 1) &^ (m - 1) }
