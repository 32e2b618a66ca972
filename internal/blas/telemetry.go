package blas

import "knor/internal/telemetry"

// Kernel-dispatch counters: one bump per row stripe of Dgemm or
// NearestRows (dispatchAsm; not per inner block — the label children
// are cached so the hot path is a single atomic add). `kernel` is
// go32/go64/asm32/asm64, so a scrape shows which implementation served
// the GEMM traffic.
var (
	telGemmDispatch = telemetry.Default.CounterVec(
		"knor_blas_gemm_dispatch_total",
		"GEMM row-stripe kernel dispatches by implementation.",
		"kernel")
	telGemmGo32  = telGemmDispatch.With("go32")
	telGemmGo64  = telGemmDispatch.With("go64")
	telGemmAsm32 = telGemmDispatch.With("asm32")
	telGemmAsm64 = telGemmDispatch.With("asm64")
)
