package serve

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"knor/internal/matrix"
)

// blockFixture is an m-row query block against a k×d model of normal
// centroids, whose first centroid is all ones.
func blockFixture(tb testing.TB, m, k, d int) (*BatcherOf[float64], *Model, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	cents := matrix.NewDense(k, d)
	for i := range cents.Data {
		cents.Data[i] = rng.NormFloat64()
	}
	for j := range cents.Row(0) {
		cents.Row(0)[j] = 1
	}
	snap, err := NewRegistry(1).Publish("m", cents)
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]float64, m*d)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	return &BatcherOf[float64]{opts: BatcherOptions{}.withDefaults()}, snap, rows
}

// TestAssignBlockReusedBlockExact checks that a distance block an
// earlier flush left holding -Inf answers the next flush exactly as a
// fresh block does. Dgemm with beta = 0 would scale the stale -Inf into
// NaN before accumulating.
func TestAssignBlockReusedBlockExact(t *testing.T) {
	const m, k, d = 8, 50, 32
	fresh, snap, rows := blockFixture(t, m, k, d)
	want := fresh.assignBlock(rows, m, snap)

	reused := &BatcherOf[float64]{opts: fresh.opts}
	huge := make([]float64, m*d)
	for i := range huge {
		huge[i] = 1e308 // overflows the dot product with the all-ones centroid
	}
	reused.assignBlock(huge, m, snap)
	got := reused.assignBlock(rows, m, snap)
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("row %d after a -Inf flush: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAssignBlockSteadyStateBytes gates the bytes a steady-state flush
// of the d32 benchmark shape (64 rows, k=1000, d=32) allocates: with the
// m×k block reused only Dgemm's pack buffer and the per-row outputs
// remain, against 551 KB when every flush allocated its block.
func TestAssignBlockSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	const m, k, d, calls = 64, 1000, 32, 20
	b, snap, rows := blockFixture(t, m, k, d)
	b.assignBlock(rows, m, snap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		b.assignBlock(rows, m, snap)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Fatalf("assignBlock allocates %d bytes per call, want < 64 KB", per)
	}
}

// BenchmarkAssignBlock times one flush's distance computation at the
// benchmark workloads' request shapes: d16 (4 rows, k=100, d=16) and d32
// (64 rows, k=1000, d=32), single-threaded.
func BenchmarkAssignBlock(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, d int
	}{{"d16", 4, 100, 16}, {"d32", 64, 1000, 32}} {
		b.Run(s.name, func(b *testing.B) {
			bat, snap, rows := blockFixture(b, s.m, s.k, s.d)
			b.ReportAllocs()
			for b.Loop() {
				bat.assignBlock(rows, s.m, snap)
			}
		})
	}
}
