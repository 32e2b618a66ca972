package kmeans

import (
	"knor/internal/blas"
	"knor/internal/matrix"
)

// The implementations in this file are the Table 3 baselines: the same
// Lloyd's algorithm expressed in the implementation styles of the
// libraries the paper measures serially. They are honest
// implementations, not slowdown knobs — the performance differences
// come from the styles themselves (GEMM materialises an n×k distance
// matrix; "copying" clones each row; "indirect" calls through a
// function value per distance like a generic library kernel).
type styleRunner[T blas.Float] func(data, cents *matrix.Mat[T], assign []int32, gsum *AccumOf[T]) int

// runStyled drives full Lloyd's iterations with the given assignment
// pass and incremental sums, sharing convergence logic.
func runStyled[T blas.Float](data *matrix.Mat[T], cfg Config, pass styleRunner[T]) (*Result, error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	n, d, k := data.Rows(), data.Cols(), cfg.K
	cents := initCentroids(data, cfg)
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	gsum := NewAccumOf[T](k, d)
	res := &Result{}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		changed := pass(data, cents, assign, gsum)
		next := gsum.Centroids(cents)
		drift := 0.0
		for c := 0; c < k; c++ {
			drift += float64(matrix.Dist(cents.Row(c), next.Row(c)))
		}
		cents = next
		res.PerIter = append(res.PerIter, IterStats{Iter: iter, RowsChanged: changed, ActiveRows: n, Drift: drift})
		res.Iters = iter + 1
		if iter > 0 && (changed == 0 || drift <= cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = matrix.ToFloat64(cents)
	res.Assign = assign
	res.Sizes = sizesOf(assign, k)
	res.SSE = SSEOf(data, cents, assign)
	res.MemoryBytes = StateBytes(n, d, k, 1, PruneNone)
	return res, nil
}

// RunGEMM is the MATLAB/BLAS-style baseline: per chunk, all squared
// distances are materialised with one GEMM (‖v‖²+‖c‖²−2·V·Cᵀ), then an
// argmin pass assigns rows. Chunking keeps the distance matrix L2-sized
// as the vendor libraries do.
func RunGEMM(data *matrix.Dense, cfg Config, chunk, threads int) (*Result, error) {
	return RunGEMMOf(data, cfg, chunk, threads)
}

// RunGEMMOf is RunGEMM generic over the element type. At float32 the
// blocked distance computation routes through the register-tiled
// float32 Dgemm microkernel — the tile the serving flush also runs,
// against its cached panel instead of a materialised block — so this
// is also the float32 training baseline knorbench's precision sweep
// measures.
func RunGEMMOf[T blas.Float](data *matrix.Mat[T], cfg Config, chunk, threads int) (*Result, error) {
	if chunk <= 0 {
		chunk = 4096
	}
	if threads <= 0 {
		threads = 1
	}
	return runStyled(data, cfg, func(data, cents *matrix.Mat[T], assign []int32, gsum *AccumOf[T]) int {
		n, d, k := data.Rows(), data.Cols(), cents.Rows()
		dist := make([]T, chunk*k)
		changed := 0
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			m := hi - lo
			blas.PairwiseSqDist(data.Data[lo*d:hi*d], m, cents.Data, k, d, dist, threads)
			for i := 0; i < m; i++ {
				row := dist[i*k : (i+1)*k]
				best, bi := inf[T](), 0
				for c, v := range row {
					if v < best {
						best, bi = v, c
					}
				}
				g := lo + i
				if int32(bi) != assign[g] {
					changed++
					if assign[g] >= 0 {
						gsum.Remove(data.Row(g), int(assign[g]))
					}
					gsum.Add(data.Row(g), bi)
					assign[g] = int32(bi)
				}
			}
		}
		return changed
	})
}

// RunIterativeCopying is the R-style baseline: an iterative kernel that
// copies each row into a scratch buffer before the distance loop (the
// data-frame extraction cost of vector-language implementations).
func RunIterativeCopying(data *matrix.Dense, cfg Config) (*Result, error) {
	return runStyled(data, cfg, func(data, cents *matrix.Dense, assign []int32, gsum *Accum) int {
		n, d := data.Rows(), data.Cols()
		scratch := make([]float64, d)
		changed := 0
		for i := 0; i < n; i++ {
			copy(scratch, data.Row(i))
			bi, _ := nearest(scratch, cents)
			if int32(bi) != assign[i] {
				changed++
				if assign[i] >= 0 {
					gsum.Remove(data.Row(i), int(assign[i]))
				}
				gsum.Add(data.Row(i), bi)
				assign[i] = int32(bi)
			}
		}
		return changed
	})
}

// indirectMetric is deliberately a mutable package-level variable so
// the compiler cannot devirtualise the call — preserving the dispatch
// cost the baseline models.
var indirectMetric func(a, b []float64) float64 = matrix.SqDist

// RunIterativeIndirect is the Scikit/MLpack-style baseline: the inner
// distance goes through a function value (the virtual-dispatch /
// generic-metric indirection of templated or wrapped library kernels).
func RunIterativeIndirect(data *matrix.Dense, cfg Config) (*Result, error) {
	metric := indirectMetric
	return runStyled(data, cfg, func(data, cents *matrix.Dense, assign []int32, gsum *Accum) int {
		n := data.Rows()
		changed := 0
		for i := 0; i < n; i++ {
			row := data.Row(i)
			best, bi := inf[float64](), 0
			for c := 0; c < cents.Rows(); c++ {
				if d := metric(row, cents.Row(c)); d < best {
					best, bi = d, c
				}
			}
			if int32(bi) != assign[i] {
				changed++
				if assign[i] >= 0 {
					gsum.Remove(row, int(assign[i]))
				}
				gsum.Add(row, bi)
				assign[i] = int32(bi)
			}
		}
		return changed
	})
}
