package serve

import (
	"math"
	"math/rand"
	"testing"

	"knor/internal/matrix"
	"knor/internal/workload"
)

// quantFixture publishes a float32 model and returns float32 queries.
// The centroid set is deliberately hostile to the quantized path:
// duplicate rows (bitwise ties the re-rank must break by lowest
// index), near-duplicates within quantization error of each other, a
// zero row, and one row with a huge-magnitude outlier coordinate (its
// int8 scale crushes every other coordinate to a couple of levels).
func quantFixture(t *testing.T, seed int64) (*Registry, *matrix.Mat[float32]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const k, d = 40, 12
	c := matrix.New[float32](k, d)
	for i := range c.Data {
		c.Data[i] = float32(rng.NormFloat64())
	}
	copy(c.Data[5*d:6*d], c.Data[2*d:3*d]) // exact duplicate of row 2
	copy(c.Data[9*d:10*d], c.Data[2*d:3*d])
	for p := 0; p < d; p++ { // near-duplicate: far inside the int8 error bound
		c.Data[11*d+p] = c.Data[2*d+p] + 1e-6
	}
	clear(c.Data[17*d : 18*d]) // zero row: scale falls back to 1
	c.Data[23*d+3] = 400       // outlier coordinate
	reg := NewRegistry(2)
	if _, err := PublishOf(reg, "m", c); err != nil {
		t.Fatal(err)
	}
	q64 := workload.Generate(workload.Spec{
		Kind: workload.UniformMultivariate, N: 300, D: d, Seed: seed + 1,
	})
	q := matrix.Convert[float32](q64)
	// Aim some queries straight at the tied/near-tied centroids so the
	// tie-break actually fires, plus one bitwise-exact hit on row 2.
	for i := 0; i < 40; i++ {
		for p := 0; p < d; p++ {
			q.Data[i*d+p] = c.Data[2*d+p] + float32(rng.NormFloat64())*1e-3
		}
	}
	copy(q.Data[:d], c.Data[2*d:3*d])
	return reg, q
}

// assertSame fails unless the two answer sets are bit-identical:
// same cluster (so same tie-break) and same SqDist bits.
func assertSame(t *testing.T, got, want []Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cluster != want[i].Cluster {
			t.Fatalf("row %d: cluster %d vs %d", i, got[i].Cluster, want[i].Cluster)
		}
		if math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("row %d: sqdist %v vs %v", i, got[i].SqDist, want[i].SqDist)
		}
		if got[i].Version != want[i].Version {
			t.Fatalf("row %d: version %d vs %d", i, got[i].Version, want[i].Version)
		}
	}
}

// TestQuantAssignBitIdenticalToExact: the int8 scan + exact re-rank
// must reproduce the exact float32 path bit-for-bit, duplicate-centroid
// ties and scale outliers included.
func TestQuantAssignBitIdenticalToExact(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		reg, q := quantFixture(t, seed)
		exact := NewBatcherOf[float32](reg, BatcherOptions{})
		quant := NewBatcherOf[float32](reg, BatcherOptions{Quantize: "int8"})
		want, err := exact.AssignBatch("m", q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := quant.AssignBatch("m", q)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, got, want)
		exact.Close()
		quant.Close()
	}
}

// TestQuantRerankFallback publishes a model with rerankCap+1 bitwise
// identical rows. Every tie at the minimum is a candidate, so queries
// aimed at the tied rows overflow the re-rank cap; the full-scan
// fallback must both fire (telemetry) and still answer bit-identically,
// lowest-index tie-break included.
func TestQuantRerankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, d, tied = 48, 12, rerankCap + 1
	c := matrix.New[float32](k, d)
	for i := range c.Data {
		c.Data[i] = float32(rng.NormFloat64())
	}
	for j := 4; j < 4+tied-1; j++ { // rows 3 .. 3+tied-1 are one row
		copy(c.Data[j*d:(j+1)*d], c.Data[3*d:4*d])
	}
	reg := NewRegistry(1)
	if _, err := PublishOf(reg, "m", c); err != nil {
		t.Fatal(err)
	}
	q := matrix.New[float32](64, d)
	for i := 0; i < q.Rows(); i++ {
		for p := 0; p < d; p++ {
			q.Data[i*d+p] = c.Data[3*d+p] + float32(rng.NormFloat64())*1e-3
		}
	}
	copy(q.Data[:d], c.Data[3*d:4*d])
	exact := NewBatcherOf[float32](reg, BatcherOptions{})
	defer exact.Close()
	quant := NewBatcherOf[float32](reg, BatcherOptions{Quantize: "int8"})
	defer quant.Close()

	before := telQuantFallbacks.Load()
	want, err := exact.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := quant.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want)
	if telQuantFallbacks.Load() == before {
		t.Fatalf("%d tied centroids never overflowed the re-rank cap of %d", tied, rerankCap)
	}
}

// TestQuantRawSqDist checks a quantized Shard batcher reports raw
// distances (no zero clamp) identically to the exact path.
func TestQuantRawSqDist(t *testing.T) {
	reg, q := quantFixture(t, 9)
	exact := NewBatcherOf[float32](reg, BatcherOptions{Shard: true})
	defer exact.Close()
	quant := NewBatcherOf[float32](reg, BatcherOptions{Quantize: "int8", Shard: true})
	defer quant.Close()
	want, err := exact.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := quant.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want)
}

// TestQuantIgnoredOnFloat64 checks a float64 batcher with Quantize set
// silently serves the exact path (the option is float32-only).
func TestQuantIgnoredOnFloat64(t *testing.T) {
	reg := NewRegistry(1)
	cents := workload.Generate(workload.Spec{
		Kind: workload.UniformMultivariate, N: 10, D: 6, Seed: 1,
	})
	if _, err := reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	q := workload.Generate(workload.Spec{
		Kind: workload.UniformMultivariate, N: 50, D: 6, Seed: 2,
	})
	exact := NewBatcher(reg, BatcherOptions{})
	defer exact.Close()
	quant := NewBatcher(reg, BatcherOptions{Quantize: "int8"})
	defer quant.Close()
	want, err := exact.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := quant.AssignBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, got, want)
}
