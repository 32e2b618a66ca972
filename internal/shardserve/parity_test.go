package shardserve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/serve"
)

// The tentpole contract: the sharded assigner is BIT-identical to the
// single-node serve.BatcherOf for any machine count and either
// precision — same Cluster, same SqDist down to the last bit, same
// Version — including argmin ties, which duplicate centroid rows force
// deliberately. The single node scans global indices ascending and
// keeps the first strict minimum; the shard path must reproduce that
// through the per-shard scans plus the lowest-global-index tie-break of
// cluster.CombineMin.

// parityCase builds k×d centroids with duplicate rows (exact ties) and
// a query set mixing random rows, exact centroid copies (ties at
// distance ~0 between duplicates) and midpoints of duplicate pairs.
func parityCase(k, d, nq int, seed int64) (cents, queries *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	cents = matrix.NewDense(k, d)
	for i := range cents.Data {
		cents.Data[i] = rng.NormFloat64()
	}
	// Duplicate some rows across what will be different shards: row
	// k-1 copies row 0, and when k >= 5 row k/2 copies row 1.
	if k >= 2 {
		copy(cents.Row(k-1), cents.Row(0))
	}
	if k >= 5 {
		copy(cents.Row(k/2), cents.Row(1))
	}
	queries = matrix.NewDense(nq, d)
	for i := 0; i < nq; i++ {
		switch {
		case i%4 == 1 && k >= 2:
			copy(queries.Row(i), cents.Row(0)) // exact tie between dup rows
		case i%4 == 3 && k >= 5:
			copy(queries.Row(i), cents.Row(1))
		default:
			for j := 0; j < d; j++ {
				queries.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return cents, queries
}

// runParity compares single-node and sharded answers at element type T.
func runParity[T blas.Float](t *testing.T, machines, k, d, nq int, seed int64) {
	t.Helper()
	cents, queries := parityCase(k, d, nq, seed)

	reg := serve.NewRegistry(1)
	if _, err := reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	single := serve.NewBatcherOf[T](reg, serve.BatcherOptions{})
	defer single.Close()

	sr := NewShardRegistry(machines)
	if _, err := sr.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	sharded := NewAssignerOf[T](sr, serve.BatcherOptions{})
	defer sharded.Close()

	q := matrix.Convert[T](queries)
	want, err := single.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("answer count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cluster != want[i].Cluster {
			t.Fatalf("M=%d k=%d row %d: cluster %d, single node says %d (dists %g vs %g)",
				machines, k, i, got[i].Cluster, want[i].Cluster, got[i].SqDist, want[i].SqDist)
		}
		if math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("M=%d k=%d row %d: sqdist %v (bits %x), single node %v (bits %x)",
				machines, k, i, got[i].SqDist, math.Float64bits(got[i].SqDist),
				want[i].SqDist, math.Float64bits(want[i].SqDist))
		}
		if got[i].Version != want[i].Version {
			t.Fatalf("M=%d k=%d row %d: version %d, single node %d", machines, k, i, got[i].Version, want[i].Version)
		}
	}
}

// TestShardParity is the acceptance property test: Machines ∈
// {1,2,3,5} × precision ∈ {32,64} × k shapes including widths that are
// not multiples of the float32 kernel's 4-wide column tile, plus k <
// machines (empty tail machines) and k with duplicate rows (ties).
func TestShardParity(t *testing.T) {
	shapes := []struct{ k, d int }{
		{1, 3}, {2, 8}, {7, 5}, {17, 16}, {25, 13}, {100, 16},
	}
	for _, machines := range []int{1, 2, 3, 5} {
		for _, sh := range shapes {
			seed := int64(machines*1000 + sh.k)
			t.Run("", func(t *testing.T) {
				runParity[float64](t, machines, sh.k, sh.d, 48, seed)
				runParity[float32](t, machines, sh.k, sh.d, 48, seed)
			})
		}
	}
}

// TestAssignerConcurrentRepublish hammers AssignBatch while a writer
// republishes with alternating k (8 ↔ 3 over 5 machines, so every
// other publish drops shards from the tail machines). Any fan-out
// that catches the transition mid-flight must resolve it through the
// version-skew retry — never surface "unknown model" for a model that
// exists, and never return an out-of-range global index.
func TestAssignerConcurrentRepublish(t *testing.T) {
	sr := NewShardRegistry(5)
	if _, err := sr.Publish("m", seqCentroids(8, 4, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer a.Close()

	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 3
			if i%2 == 0 {
				k = 8
			}
			if _, err := sr.Publish("m", seqCentroids(k, 4, float64(i))); err != nil {
				t.Errorf("republish %d: %v", i, err)
				return
			}
			// A publish cadence with windows longer than a fan-out
			// round trip: the skew retry is built for publishes racing
			// queries, not for publishers that never pause (see
			// skewRetries).
			time.Sleep(time.Millisecond)
		}
	}()
	queries := matrix.NewDense(16, 4)
	for i := range queries.Data {
		queries.Data[i] = float64(i % 7)
	}
	for r := 0; r < 200; r++ {
		as, err := a.AssignBatch("m", queries)
		if err != nil {
			t.Fatalf("assign round %d: %v", r, err)
		}
		for i, an := range as {
			if an.Cluster < 0 || an.Cluster >= 8 {
				t.Fatalf("round %d row %d: cluster %d out of range", r, i, an.Cluster)
			}
		}
	}
	close(stop)
	<-pubDone
}

// TestShardParityAcrossRepublish republishes with a different k
// (rebalance) and re-checks parity at the new version.
func TestShardParityAcrossRepublish(t *testing.T) {
	cents1, queries := parityCase(12, 6, 32, 1)
	cents2, _ := parityCase(5, 6, 1, 2)

	reg := serve.NewRegistry(1)
	sr := NewShardRegistry(3)
	for _, c := range []*matrix.Dense{cents1, cents2} {
		if _, err := reg.Publish("m", c); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Publish("m", c); err != nil {
			t.Fatal(err)
		}
	}
	single := serve.NewBatcher(reg, serve.BatcherOptions{})
	defer single.Close()
	sharded := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer sharded.Close()

	want, err := single.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after rebalance: %+v, single node %+v", i, got[i], want[i])
		}
	}
	if want[0].Version != 2 {
		t.Fatalf("expected version 2 answers, got %d", want[0].Version)
	}
}
