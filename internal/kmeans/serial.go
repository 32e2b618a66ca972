package kmeans

import (
	"sync"

	"knor/internal/matrix"
	"knor/internal/sched"
)

// RunSerial is the dead-simple reference Lloyd's implementation used as
// the correctness oracle for every optimised engine, and (with
// cfg.Prune set) the serial MTI/TI variant. It performs no simulated
// timing.
//
// Like every knor engine it maintains cluster sums *incrementally*:
// a row contributes a delta only when its membership changes. This is
// what lets clause-1-pruned rows skip both computation and — in the SEM
// module — the I/O for their row data.
func RunSerial(data *matrix.Dense, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	if cfg.Spherical {
		data = data.Clone()
		normalizeRows(data)
	}
	n, d, k := data.Rows(), data.Cols(), cfg.K
	cents := initCentroids(data, cfg)
	if cfg.Spherical {
		normalizeRows(cents)
	}
	ps := NewPruneState(cfg.Prune, n, k)
	res := &Result{}
	gsum := NewAccum(k, d) // persistent global sums
	dist := make([]float64, k)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		var ctr PruneCounters
		ps.UpdateCentroidDists(cents)
		changed := 0
		for i := 0; i < n; i++ {
			if iter > 0 && !ps.NeedsRow(i) {
				ctr.C1++
				continue
			}
			old := ps.Assign[i]
			if ps.AssignRow(i, data.Row(i), cents, &ctr, dist) {
				changed++
				if old >= 0 {
					gsum.Remove(data.Row(i), int(old))
				}
				gsum.Add(data.Row(i), int(ps.Assign[i]))
			}
		}
		next := gsum.Centroids(cents)
		if cfg.Spherical {
			normalizeRows(next)
		}
		drift := ps.UpdateAfterMove(cents, next)
		cents = next
		res.PerIter = append(res.PerIter, IterStats{
			Iter:      iter,
			DistCalcs: ctr.DistCalcs,
			PrunedC1:  ctr.C1, PrunedC2: ctr.C2, PrunedC3: ctr.C3,
			RowsChanged: changed,
			ActiveRows:  n - int(ctr.C1),
			Drift:       drift,
		})
		res.Iters = iter + 1
		if iter > 0 && (changed == 0 || drift <= cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = cents
	res.Assign = ps.Assign
	res.Sizes = sizesOf(ps.Assign, k)
	res.SSE = SSEOf(data, cents, ps.Assign)
	res.MemoryBytes = StateBytes(n, d, k, 1, cfg.Prune)
	return res, nil
}

// RunNaiveParallel is the paper's strawman: parallel phase I, then a
// *shared* next-centroid structure guarded by per-centroid locks —
// exactly the interference ||Lloyd's eliminates. It exists to be
// measured against (the "naïve Lloyd's" of Section 4) and is
// wall-clock-honest: the contention is real.
func RunNaiveParallel(data *matrix.Dense, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	if cfg.Spherical {
		data = data.Clone()
		normalizeRows(data)
	}
	n, d, k := data.Rows(), data.Cols(), cfg.K
	cents := initCentroids(data, cfg)
	if cfg.Spherical {
		normalizeRows(cents)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{}
	locks := make([]sync.Mutex, k)
	shared := NewAccum(k, d)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		shared.Reset() // naive: rebuilds sums every iteration
		var changed int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		tasks := sched.MakeTasks(n, cfg.TaskSize, nil)
		next := make(chan sched.Task, len(tasks))
		for _, t := range tasks {
			next <- t
		}
		close(next)
		for w := 0; w < cfg.Threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := 0
				for t := range next {
					for i := t.Lo; i < t.Hi; i++ {
						bi, _ := nearest(data.Row(i), cents)
						if int32(bi) != assign[i] {
							local++
							assign[i] = int32(bi)
						}
						// Phase II under a per-centroid lock: the
						// interference the paper measures.
						locks[bi].Lock()
						shared.Add(data.Row(i), bi)
						locks[bi].Unlock()
					}
				}
				mu.Lock()
				changed += int64(local)
				mu.Unlock()
			}()
		}
		wg.Wait()
		nextCents := shared.Centroids(cents)
		if cfg.Spherical {
			normalizeRows(nextCents)
		}
		drift := 0.0
		for c := 0; c < k; c++ {
			drift += matrix.Dist(cents.Row(c), nextCents.Row(c))
		}
		cents = nextCents
		res.PerIter = append(res.PerIter, IterStats{Iter: iter, RowsChanged: int(changed), ActiveRows: n, Drift: drift})
		res.Iters = iter + 1
		if iter > 0 && (changed == 0 || drift <= cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = cents
	res.Assign = assign
	res.Sizes = sizesOf(assign, k)
	res.SSE = SSEOf(data, cents, assign)
	res.MemoryBytes = StateBytes(n, d, k, 1, PruneNone)
	return res, nil
}

func sizesOf(assign []int32, k int) []int {
	sizes := make([]int, k)
	for _, a := range assign {
		if a >= 0 {
			sizes[a]++
		}
	}
	return sizes
}
