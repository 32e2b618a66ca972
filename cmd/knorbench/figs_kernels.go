package main

// Kernels experiment: GFLOP/s of the Dgemm microkernels at both
// element widths with the assembly path on and off (same binary — the
// dispatch switch flips at runtime), ns per distance of the exact
// row-distance kernel training's dense scans run, and µs per serving
// flush at both widths by the block-free path and by Dgemm + scan.
// With -json the measurements also land in a machine-readable file
// (the bench-kernels Makefile target writes BENCH_kernels.json),
// including the float32 asm/go speedup on the acceptance shape. Every
// cell is timed kernelReps times and reported as its median with the
// first and third quartiles, so a regeneration shows its own noise.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/workload"
)

// kernelReps is how many timed reps each cell takes after one warmup.
const kernelReps = 5

// quartiles is one cell's spread over its reps.
type quartiles struct{ q1, med, q3 float64 }

// timeQuartiles warms f up once, then times kernelReps runs of it and
// returns the quartiles of rate(seconds) over the runs.
func timeQuartiles(f func(), rate func(sec float64) float64) quartiles {
	f()
	xs := make([]float64, kernelReps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = rate(time.Since(start).Seconds())
	}
	sort.Float64s(xs)
	n := len(xs)
	return quartiles{q1: xs[n/4], med: xs[n/2], q3: xs[3*n/4]}
}

// String prints the median with its quartiles: median [q1–q3].
func (q quartiles) String() string {
	return fmt.Sprintf("%.2f [%.2f–%.2f]", q.med, q.q1, q.q3)
}

// kernelResult is one GEMM measurement in the JSON report.
type kernelResult struct {
	Dtype    string  `json:"dtype"`  // float32 | float64
	Kernel   string  `json:"kernel"` // go | avx2fma | neon
	M        int     `json:"m"`
	D        int     `json:"d"`
	K        int     `json:"k"`
	GFLOPS   float64 `json:"gflops"` // median over the reps
	GFLOPSQ1 float64 `json:"gflops_q1"`
	GFLOPSQ3 float64 `json:"gflops_q3"`
}

func newKernelResult(dtype, kernel string, m, d, k int, q quartiles) kernelResult {
	return kernelResult{Dtype: dtype, Kernel: kernel, M: m, D: d, K: k, GFLOPS: q.med, GFLOPSQ1: q.q1, GFLOPSQ3: q.q3}
}

// distRowsResult is one SqDistRows measurement in the JSON report: a
// row's exact squared distances to k centroids, as training's dense
// scans compute them, in ns per distance.
type distRowsResult struct {
	Kernel      string  `json:"kernel"` // go | avx2fma | neon
	D           int     `json:"d"`
	K           int     `json:"k"`
	NsPerDist   float64 `json:"ns_per_dist"` // median over the reps
	NsPerDistQ1 float64 `json:"ns_per_dist_q1"`
	NsPerDistQ3 float64 `json:"ns_per_dist_q3"`
}

// nearestResult is one serving flush in the JSON report: m query rows
// against a k×d model, answered by the block-free path
// (blas.NearestRows over a prebuilt panel, "panel") or by Dgemm into a
// zeroed m×k block and a scan ("gemm"), in µs per flush.
type nearestResult struct {
	Dtype        string  `json:"dtype"`  // float32 | float64
	Path         string  `json:"path"`   // panel | gemm
	Kernel       string  `json:"kernel"` // go | avx2fma | neon
	M            int     `json:"m"`
	K            int     `json:"k"`
	D            int     `json:"d"`
	UsPerFlush   float64 `json:"us_per_flush"` // median over the reps
	UsPerFlushQ1 float64 `json:"us_per_flush_q1"`
	UsPerFlushQ3 float64 `json:"us_per_flush_q3"`
}

// kernelsReport is the BENCH_kernels.json schema.
type kernelsReport struct {
	// Kernel is the assembly flavour compiled in ("go" when the binary
	// was built with -tags noasm or on an unsupported CPU).
	Kernel  string `json:"kernel"`
	Threads int    `json:"threads"`
	// Reps is how many timed reps each cell's median and quartiles
	// come from.
	Reps int `json:"reps"`
	// SpeedupF32 is asm/go median GFLOP/s on the acceptance shape
	// (1M-row PairwiseSqDist-shaped GEMM, d=16, k=100); 1.0 without
	// assembly.
	SpeedupF32 float64          `json:"speedup_f32"`
	Gemm       []kernelResult   `json:"gemm"`
	DistRows   []distRowsResult `json:"dist_rows"`
	Nearest    []nearestResult  `json:"nearest"`
}

// gemmShapes: the acceptance shape first (1M x 16 by k=100 — the
// PairwiseSqDist shape serving flushes run), then a wider and a deeper
// panel to exercise the tail paths.
var gemmShapes = []struct{ m, d, k int }{
	{1_000_000, 16, 100},
	{200_000, 64, 64},
	{100_000, 100, 31},
}

// distRowsShapes are the two benchmark workloads' training scans: d16's
// 50000 rows against k=100, and the 2000 rows a d32 deployment's model
// trains on against k=1000.
var distRowsShapes = []struct{ rows, d, k int }{
	{50_000, 16, 100},
	{2_000, 32, 1000},
}

// nearestShapes are the benchmark's flushes: a d16 request (4 rows,
// k=100, d=16), a d32 request (64 rows, k=1000, d=32) and a d32 request
// at one of the cluster's two shards (k=500). The last, 64 rows against
// k=10000, d=64, has a 5 MB float64 panel that outgrows L2, which the
// block-free path walks in column blocks.
var nearestShapes = []struct{ m, k, d int }{
	{4, 100, 16},
	{64, 1000, 32},
	{64, 500, 32},
	{64, 10000, 64},
}

func kernelsExp(e env) {
	threads := runtime.GOMAXPROCS(0)
	shapes := gemmShapes
	if e.quick {
		shapes = append([]struct{ m, d, k int }{}, shapes...)
		for i := range shapes {
			shapes[i].m /= 10
		}
	}
	report := kernelsReport{Kernel: blas.KernelName(), Threads: threads, Reps: kernelReps}
	fmt.Printf("  kernel flavour: %s (asm supported: %v), %d threads\n",
		blas.KernelName(), blas.AsmSupported(), threads)

	var rows [][]string
	for _, sh := range shapes {
		spec := workload.Spec{Kind: workload.UniformMultivariate, N: sh.m + sh.k, D: sh.d, Seed: int64(sh.d)}
		all := workload.Generate(spec)
		all32 := matrix.Convert[float32](all)
		a64, c64 := all.Data[:sh.m*sh.d], all.Data[sh.m*sh.d:]
		a32, c32 := all32.Data[:sh.m*sh.d], all32.Data[sh.m*sh.d:]
		out64 := make([]float64, sh.m*sh.k)
		out32 := make([]float32, sh.m*sh.k)
		flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.d)
		gflops := func(sec float64) float64 { return flops / sec / 1e9 }

		perKernel := map[string][2]float64{} // kernel -> median {gf32, gf64}
		for _, asm := range []bool{true, false} {
			if asm && !blas.AsmSupported() {
				continue
			}
			prev := blas.SetAsmEnabled(asm)
			name := blas.KernelName()
			if !asm {
				name = "go"
			}
			gf32 := timeQuartiles(func() { blas.Dgemm[float32](-2, a32, sh.m, sh.d, c32, sh.k, 0, out32, threads) }, gflops)
			gf64 := timeQuartiles(func() { blas.Dgemm[float64](-2, a64, sh.m, sh.d, c64, sh.k, 0, out64, threads) }, gflops)
			blas.SetAsmEnabled(prev)
			perKernel[name] = [2]float64{gf32.med, gf64.med}
			report.Gemm = append(report.Gemm,
				newKernelResult("float32", name, sh.m, sh.d, sh.k, gf32),
				newKernelResult("float64", name, sh.m, sh.d, sh.k, gf64),
			)
			rows = append(rows, []string{
				fmt.Sprintf("%dx%d k=%d", sh.m, sh.d, sh.k), name, gf32.String(), gf64.String(),
			})
		}
		if sh == shapes[0] {
			report.SpeedupF32 = 1
			if asmGF, ok := perKernel[blas.KernelName()]; ok && blas.AsmSupported() {
				report.SpeedupF32 = asmGF[0] / perKernel["go"][0]
			}
		}
	}
	printTable([]string{"shape", "kernel", "f32 GF/s", "f64 GF/s"}, rows)
	if blas.AsmSupported() {
		fmt.Printf("  float32 asm/go speedup on %dx%d k=%d: %.2fx\n",
			shapes[0].m, shapes[0].d, shapes[0].k, report.SpeedupF32)
	}

	// The float64 row-distance kernel, one data row at a time against
	// all k centroids. arm64 has no float64 row kernel, so there both
	// rows time the Go loop.
	rows = nil
	for _, sh := range distRowsShapes {
		n := sh.rows
		if e.quick {
			n /= 10
		}
		all := workload.Generate(workload.Spec{Kind: workload.UniformMultivariate, N: n + sh.k, D: sh.d, Seed: int64(sh.d)})
		data, cents := all.Data[:n*sh.d], all.Data[n*sh.d:]
		out := make([]float64, sh.k)
		for _, asm := range []bool{true, false} {
			if asm && !blas.AsmSupported() {
				continue
			}
			prev := blas.SetAsmEnabled(asm)
			name := blas.KernelName()
			if !asm {
				name = "go"
			}
			ns := timeQuartiles(func() {
				for i := 0; i < n; i++ {
					blas.SqDistRows(data[i*sh.d:(i+1)*sh.d], cents, sh.k, out)
				}
			}, func(sec float64) float64 { return sec * 1e9 / float64(n*sh.k) })
			blas.SetAsmEnabled(prev)
			report.DistRows = append(report.DistRows, distRowsResult{
				Kernel: name, D: sh.d, K: sh.k, NsPerDist: ns.med, NsPerDistQ1: ns.q1, NsPerDistQ3: ns.q3,
			})
			rows = append(rows, []string{fmt.Sprintf("%d rows x%d k=%d", n, sh.d, sh.k), name, ns.String()})
		}
	}
	printTable([]string{"SqDistRows", "kernel", "ns/dist"}, rows)

	// One serving flush at each width, single-threaded, block-free
	// against the m×k block it replaced. Neither arm64 nor float32 has
	// an argmin kernel, so there the panel rows time the tile with the
	// Go scan.
	rows = nil
	for _, sh := range nearestShapes {
		all := workload.Generate(workload.Spec{Kind: workload.UniformMultivariate, N: sh.m + sh.k, D: sh.d, Seed: int64(sh.k)})
		iters := max(20, 200_000_000/(sh.m*sh.k*sh.d))
		if e.quick {
			iters = max(2, iters/10)
		}
		for _, r := range append(nearestFlushes(all, sh.m, sh.k, sh.d, iters),
			nearestFlushes(matrix.Convert[float32](all), sh.m, sh.k, sh.d, iters)...) {
			report.Nearest = append(report.Nearest, r)
			rows = append(rows, []string{fmt.Sprintf("%dx%d k=%d", sh.m, sh.d, sh.k), r.Dtype, r.Path, r.Kernel,
				quartiles{q1: r.UsPerFlushQ1, med: r.UsPerFlush, q3: r.UsPerFlushQ3}.String()})
		}
	}
	printTable([]string{"flush", "dtype", "path", "kernel", "µs/flush"}, rows)

	if e.jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "knorbench: marshal kernels report:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(e.jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "knorbench: write kernels report:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", e.jsonPath)
	}
}

// nearestFlushes times one serving flush of the first m rows of all
// against the next k, at all's element type, by both paths with the
// assembly kernels on (when supported) and off, iters flushes per rep.
func nearestFlushes[T blas.Float](all *matrix.Mat[T], m, k, d, iters int) []nearestResult {
	a, cents := all.Data[:m*d], all.Data[m*d:(m+k)*d]
	normsSq := make([]T, k)
	blas.RowNormsSq(cents, k, d, normsSq)
	var panel blas.Panel[T]
	panel.Build(cents, k, d)
	best, idx := make([]T, m), make([]int32, m)
	block, an := make([]T, m*k), make([]T, m)
	gemmScan := func() {
		clear(block)
		blas.Dgemm(-2, a, m, d, cents, k, 1, block, 1)
		blas.RowNormsSq(a, m, d, an)
		for i := 0; i < m; i++ {
			row := block[i*k : (i+1)*k]
			bv, bi := row[0]+an[i]+normsSq[0], 0
			for j := 1; j < k; j++ {
				if v := row[j] + an[i] + normsSq[j]; v < bv {
					bv, bi = v, j
				}
			}
			best[i], idx[i] = bv, int32(bi)
		}
	}
	dtype := fmt.Sprintf("float%d", 8*blas.ElemBytes[T]())
	var out []nearestResult
	for _, asm := range []bool{true, false} {
		if asm && !blas.AsmSupported() {
			continue
		}
		prev := blas.SetAsmEnabled(asm)
		name := blas.KernelName()
		if !asm {
			name = "go"
		}
		for _, path := range []struct {
			name  string
			flush func()
		}{
			{"panel", func() { blas.NearestRows(a, m, &panel, normsSq, best, idx, 1) }},
			{"gemm", gemmScan},
		} {
			us := timeQuartiles(func() {
				for i := 0; i < iters; i++ {
					path.flush()
				}
			}, func(sec float64) float64 { return sec * 1e6 / float64(iters) })
			out = append(out, nearestResult{
				Dtype: dtype, Path: path.name, Kernel: name, M: m, K: k, D: d,
				UsPerFlush: us.med, UsPerFlushQ1: us.q1, UsPerFlushQ3: us.q3,
			})
		}
		blas.SetAsmEnabled(prev)
	}
	return out
}
