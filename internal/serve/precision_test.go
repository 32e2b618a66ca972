package serve

import (
	"math"
	"runtime"
	"testing"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/workload"
)

// well-separated centroids + tight queries: both precisions must agree
// on every cluster choice, and sqdists must match within the float32
// relative-error budget (see internal/kmeans/precision_test.go).
func precisionFixture(t *testing.T) (*Registry, *matrix.Dense) {
	t.Helper()
	reg := NewRegistry(2)
	cents, err := matrix.FromRows([][]float64{
		{0, 0, 0, 0}, {10, 0, 0, 0}, {0, 10, 0, 0}, {0, 0, 10, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	queries := workload.Generate(workload.Spec{
		Kind: workload.NaturalClusters, N: 256, D: 4, Clusters: 4, Spread: 0.05, Seed: 3,
	})
	return reg, queries
}

func TestBatcher32MatchesFloat64(t *testing.T) {
	reg, queries := precisionFixture(t)
	b64 := NewBatcher(reg, BatcherOptions{})
	defer b64.Close()
	b32 := NewBatcherOf[float32](reg, BatcherOptions{})
	defer b32.Close()

	want, err := b64.AssignBatch("m", queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b32.AssignBatch("m", matrix.Convert[float32](queries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cluster != want[i].Cluster {
			t.Fatalf("row %d: cluster %d vs %d", i, got[i].Cluster, want[i].Cluster)
		}
		if got[i].Version != want[i].Version {
			t.Fatalf("row %d: version %d vs %d", i, got[i].Version, want[i].Version)
		}
		diff := math.Abs(got[i].SqDist - want[i].SqDist)
		den := math.Max(want[i].SqDist, 1)
		if diff/den > 1e-4 {
			t.Fatalf("row %d: sqdist %g vs %g", i, got[i].SqDist, want[i].SqDist)
		}
	}
}

// TestAssignRowsConverts checks the precision-independent entry feeds
// float64 rows through either instantiation.
func TestAssignRowsConverts(t *testing.T) {
	reg, queries := precisionFixture(t)
	for _, p := range []kmeans.Precision{kmeans.Precision64, kmeans.Precision32} {
		a := NewAssigner(reg, BatcherOptions{}, p)
		as, err := a.AssignRows("m", queries)
		if err != nil {
			t.Fatalf("precision %v: %v", p, err)
		}
		if len(as) != queries.Rows() {
			t.Fatalf("precision %v: %d answers", p, len(as))
		}
		st := a.Stats()
		if st.Rows != uint64(queries.Rows()) {
			t.Fatalf("precision %v: stats rows %d", p, st.Rows)
		}
		a.Close()
		if _, err := a.AssignRows("m", queries); err == nil {
			t.Fatalf("precision %v: closed assigner accepted work", p)
		}
	}
}

// TestBatcher32DimMismatch checks the float32 path reports dim errors
// per-request like the float64 path.
func TestBatcher32DimMismatch(t *testing.T) {
	reg, _ := precisionFixture(t)
	b32 := NewBatcherOf[float32](reg, BatcherOptions{})
	defer b32.Close()
	bad := matrix.New[float32](1, 7)
	if _, err := b32.AssignBatch("m", bad); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := b32.AssignBatch("nope", matrix.New[float32](1, 4)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// benchAssign drives AssignBatch single-caller with a serving-shaped
// model (k=100, d=16) and a 4-row query per request, mirroring the
// loadtest's per-request shape but without HTTP.
func benchAssign[T interface{ float32 | float64 }](b *testing.B, threads int) {
	reg := NewRegistry(1)
	cents := workload.Generate(workload.Spec{
		Kind: workload.UniformMultivariate, N: 100, D: 16, Seed: 1,
	})
	if _, err := reg.Publish("m", cents); err != nil {
		b.Fatal(err)
	}
	queries64 := workload.Generate(workload.Spec{
		Kind: workload.UniformMultivariate, N: 4096, D: 16, Seed: 2,
	})
	queries := matrix.Convert[T](queries64)
	bt := NewBatcherOf[T](reg, BatcherOptions{Threads: threads})
	defer bt.Close()
	b.SetBytes(int64(queries.Rows() * queries.RowBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.AssignBatch("m", queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeAssign32 vs BenchmarkServeAssign64: the serving assign
// hot path at both precisions (EXPERIMENTS.md precision section).
func BenchmarkServeAssign32(b *testing.B) { benchAssign[float32](b, runtime.GOMAXPROCS(0)) }

// BenchmarkServeAssign64 is the float64 baseline for the ratio.
func BenchmarkServeAssign64(b *testing.B) { benchAssign[float64](b, runtime.GOMAXPROCS(0)) }
