package main

import (
	"fmt"
	"math"
	"math/rand"

	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/shardserve"
)

// shardServeExp extends the distributed story (Figures 11-12) to the
// online path: one model's k=100 centroids sharded across M simulated
// machines, /assign batches fanned out and merged by the
// recursive-doubling min-allreduce. The sweep reports simulated assign
// throughput, per-batch latency quantiles, and scaling efficiency
// against the single-machine baseline — per batch size and wire
// precision, since the fan-out replicates every query batch to all
// shards and its cost is pure bytes.
//
// The expected shape: compute-bound at small M (per-shard GEMM is
// k/M of the single-node kernel), shifting to fan-out-bandwidth-bound
// as M grows — the same compute→network crossover the trainers show in
// Figure 12, now on the serving path. The acceptance bar from the
// roadmap: >= 2x throughput at 4 machines on the 1M×16 k=100 loadtest
// shape.
func shardServeExp(e env) {
	const (
		k, d = 100, 16
	)
	nBatches := 1024 // ~1M rows at batch=1024, the loadtest scale
	if e.quick {
		nBatches = 128
	}
	rng := rand.New(rand.NewSource(7))
	mix := func(base int) []int {
		// Mixed sizes around the nominal batch (interactive tails plus
		// full flushes) so p50/p99 separate.
		b := make([]int, nBatches)
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = base / 4
			case 1:
				b[i] = base / 2
			default:
				b[i] = base
			}
		}
		return b
	}

	var rows [][]string
	for _, elem := range []int{8, 4} {
		for _, batch := range []int{256, 1024} {
			batches := mix(batch)
			base := 0.0
			for _, m := range []int{1, 2, 4, 8} {
				st, err := shardserve.SimulateShardServe(shardserve.SimConfig{
					Machines: m, K: k, D: d, ElemBytes: elem, Batches: batches,
				})
				if err != nil {
					panic(err)
				}
				if m == 1 {
					base = st.RowsPerSec
				}
				sp := st.RowsPerSec / base
				rows = append(rows, []string{
					fmt.Sprintf("%d", m),
					fmt.Sprintf("%d", batch),
					fmt.Sprintf("f%d", elem*8),
					fmt.Sprintf("%.2fM", st.RowsPerSec/1e6),
					fmtMs(st.P50), fmtMs(st.P95), fmtMs(st.P99),
					fmtX(sp),
					fmt.Sprintf("%.0f%%", 100*sp/float64(m)),
				})
			}
		}
	}
	fmt.Printf("  k=%d d=%d, %d mixed-size batches per cell, closed loop window 4\n\n", k, d, nBatches)
	printTable(
		[]string{"machines", "batch", "wire", "rows/s", "p50-ms", "p95-ms", "p99-ms", "speedup", "eff"},
		rows)
	fmt.Println()
	shardParityCheck()
}

// shardParityCheck runs the REAL fan-out assigner against the
// single-node batcher on a tie-heavy model and prints whether the
// answers are bit-identical — the tentpole contract, verified in the
// harness output rather than only in the test suite.
func shardParityCheck() {
	const (
		k, d, nq = 100, 16, 256
	)
	rng := rand.New(rand.NewSource(11))
	cents := matrix.NewDense(k, d)
	for i := range cents.Data {
		cents.Data[i] = rng.NormFloat64()
	}
	copy(cents.Row(k-1), cents.Row(0)) // duplicate rows force argmin ties
	copy(cents.Row(k/2), cents.Row(1))
	queries := matrix.NewDense(nq, d)
	for i := 0; i < nq; i++ {
		if i%8 == 1 {
			copy(queries.Row(i), cents.Row(0))
			continue
		}
		for j := 0; j < d; j++ {
			queries.Set(i, j, rng.NormFloat64())
		}
	}

	reg := serve.NewRegistry(1)
	if _, err := reg.Publish("m", cents); err != nil {
		panic(err)
	}
	for _, elem := range []int{64, 32} {
		single := newParityAssigner(reg, elem)
		identical := true
		var want []serve.Assignment
		var err error
		if want, err = single.AssignRows("m", queries); err != nil {
			panic(err)
		}
		for _, machines := range []int{2, 3, 5} {
			sr := shardserve.NewShardRegistry(machines)
			if err := sr.Attach(reg); err != nil {
				panic(err)
			}
			sharded := newParityShardAssigner(sr, elem)
			got, err := sharded.AssignRows("m", queries)
			if err != nil {
				panic(err)
			}
			for i := range want {
				if got[i].Cluster != want[i].Cluster ||
					math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
					identical = false
				}
			}
			sharded.Close()
		}
		single.Close()
		fmt.Printf("  parity f%d: sharded assigner bit-identical to single node (M in 2,3,5, %d queries, duplicate-centroid ties): %v\n",
			elem, nq, identical)
	}
}

func newParityAssigner(reg *serve.Registry, elem int) serve.Assigner {
	opts := serve.BatcherOptions{}
	if elem == 32 {
		return serve.NewBatcherOf[float32](reg, opts)
	}
	return serve.NewBatcherOf[float64](reg, opts)
}

func newParityShardAssigner(sr *shardserve.ShardRegistry, elem int) serve.Assigner {
	opts := serve.BatcherOptions{}
	if elem == 32 {
		return shardserve.NewAssignerOf[float32](sr, opts)
	}
	return shardserve.NewAssignerOf[float64](sr, opts)
}
