package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"knor"
	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/workload"
)

// precisionExp measures the float32 vs float64 story end to end
// (EXPERIMENTS.md "Precision"): the PairwiseSqDist-shaped GEMM kernel,
// the GEMM-formulated training loop, the pruned knori engine, and the
// serving assign path. The float64 rows are the oracle; the float32
// rows report wall-clock speedup plus the relative SSE gap, which the
// precision tests bound at 1e-3.
func precisionExp(e env) {
	kernelSweep(e)
	trainSweep(e)
	assignSweep(e)
}

// kernelSweep times PairwiseSqDist on a serving-shaped chunk (rows ×
// 100 centroids) across dimensionalities, at both element types.
func kernelSweep(e env) {
	m := 65536
	reps := 5
	if e.quick {
		m = 16384
		reps = 2
	}
	const kc = 100
	fmt.Printf("  kernel: PairwiseSqDist, %d rows x %d centroids, serial (wall time)\n", m, kc)
	var rows [][]string
	for _, d := range []int{8, 16, 64} {
		spec := workload.Spec{Kind: workload.UniformMultivariate, N: m + kc, D: d, Seed: int64(d)}
		all := workload.Generate(spec)
		all32 := matrix.Convert[float32](all)
		a64 := all.Data[:m*d]
		c64 := all.Data[m*d:]
		a32 := all32.Data[:m*d]
		c32 := all32.Data[m*d:]
		dist64 := make([]float64, m*kc)
		dist32 := make([]float32, m*kc)
		t64 := timeReps(reps, func() { blas.PairwiseSqDist(a64, m, c64, kc, d, dist64, 1) })
		t32 := timeReps(reps, func() { blas.PairwiseSqDist(a32, m, c32, kc, d, dist32, 1) })
		rows = append(rows, []string{
			fmt.Sprintf("d=%d", d), fmtMs(t64), fmtMs(t32), fmtX(t64 / t32),
		})
	}
	printTable([]string{"Shape", "float64 (ms)", "float32 (ms)", "f32 speedup"}, rows)
}

// trainSweep runs the GEMM training baseline and the MTI-pruned knori
// engine at both precisions on the same dataset and seed.
func trainSweep(e env) {
	n := 16_000_000 / e.scale
	if e.quick {
		n /= 4
	}
	// Keep the training set out of cache at the default -scale: the
	// precision story is a bandwidth story, and a cache-resident run
	// underreports it.
	if n < 65536 {
		n = 65536
	}
	d, k, iters := 16, 50, 8
	data := knor.Generate(knor.Spec{
		Kind: knor.NaturalClusters, N: n, D: d, Clusters: k, Spread: 0.05, Seed: 1,
	})
	// Convert once, outside the timers: the sweep measures the engines'
	// per-iteration cost, not the one-time narrowing pass.
	data32 := matrix.Convert[float32](data)
	cfg := knor.Config{K: k, MaxIters: iters, Tol: -1, Init: knor.InitForgy, Seed: 1}

	var rows [][]string
	add := func(name string, run64, run32 func() (*knor.Result, error)) {
		start := time.Now()
		r64, err := run64()
		if err != nil {
			panic(err)
		}
		t64 := time.Since(start).Seconds() / float64(r64.Iters)
		start = time.Now()
		r32, err := run32()
		if err != nil {
			panic(err)
		}
		t32 := time.Since(start).Seconds() / float64(r32.Iters)
		gap := math.Abs(r32.SSE-r64.SSE) / r64.SSE
		rows = append(rows, []string{
			name, fmtMs(t64), fmtMs(t32), fmtX(t64 / t32), fmt.Sprintf("%.1e", gap),
		})
	}
	add("GEMM baseline (1 thread)",
		func() (*knor.Result, error) { return kmeans.RunGEMM(data, cfg, 4096, 1) },
		func() (*knor.Result, error) { return kmeans.RunGEMMOf(data32, cfg, 4096, 1) })
	mtiCfg := cfg
	mtiCfg.Prune = knor.PruneMTI
	mtiCfg.Threads = 8
	add("knori MTI (8 threads)",
		func() (*knor.Result, error) { return knor.Run(data, mtiCfg) },
		func() (*knor.Result, error) { return kmeans.RunOf(data32, mtiCfg) })
	fmt.Printf("  training: n=%d d=%d k=%d, %d iterations, same seed both widths\n", n, d, k, iters)
	printTable([]string{"Engine", "f64 ms/iter", "f32 ms/iter", "f32 speedup", "SSE rel gap"}, rows)
}

// assignSweep drives the batched serving assign path (4096-row flushes
// against a k=100, d=16 model) at both precisions.
func assignSweep(e env) {
	reps := 20
	if e.quick {
		reps = 5
	}
	cents := workload.Generate(workload.Spec{Kind: workload.UniformMultivariate, N: 100, D: 16, Seed: 1})
	queries := workload.Generate(workload.Spec{Kind: workload.UniformMultivariate, N: 4096, D: 16, Seed: 2})
	queries32 := matrix.Convert[float32](queries)
	reg := serve.NewRegistry(1)
	if _, err := reg.Publish("m", cents); err != nil {
		panic(err)
	}
	opts := serve.BatcherOptions{Threads: runtime.GOMAXPROCS(0)}

	b64 := serve.NewBatcher(reg, opts)
	t64 := timeReps(reps, func() {
		if _, err := b64.AssignBatch("m", queries); err != nil {
			panic(err)
		}
	})
	b64.Close()
	b32 := serve.NewBatcherOf[float32](reg, opts)
	t32 := timeReps(reps, func() {
		if _, err := b32.AssignBatch("m", queries32); err != nil {
			panic(err)
		}
	})
	b32.Close()

	rps := func(t float64) string { return fmt.Sprintf("%.0f", float64(queries.Rows())/t/1e3) }
	fmt.Printf("  serving: AssignBatch, 4096 rows/flush, k=100 d=16, %d threads\n", opts.Threads)
	printTable(
		[]string{"Precision", "Flush (ms)", "kRows/s", "Speedup"},
		[][]string{
			{"float64", fmtMs(t64), rps(t64), fmtX(1)},
			{"float32", fmtMs(t32), rps(t32), fmtX(t64 / t32)},
		})
}

// timeReps returns the mean wall time of f over reps runs (one warmup).
func timeReps(reps int, f func()) float64 {
	f()
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start).Seconds() / float64(reps)
}
