package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/telemetry"
)

// blockFixture is an m-row query block against a k×d model of normal
// centroids, whose first centroid is all ones, for a batcher at
// element type T.
func blockFixture[T blas.Float](tb testing.TB, m, k, d int) (*BatcherOf[T], *Model, []T) {
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
	rows := make([]T, m*d)
	for i := range rows {
		rows[i] = T(rng.NormFloat64())
	}
	return &BatcherOf[T]{opts: BatcherOptions{}.withDefaults()}, snap, rows
}

// TestAssignBlockReusedBlockExact checks that buffers an earlier flush
// left holding -Inf answer the next flush exactly as fresh ones do: the
// float32 path's pooled m×k block, where Dgemm with beta = 0 would
// scale the stale -Inf into NaN before accumulating, and the float64
// path's panel accumulator.
func TestAssignBlockReusedBlockExact(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testReusedBlockExact[float64](t, 1e308) })
	t.Run("float32", func(t *testing.T) { testReusedBlockExact[float32](t, 1e38) })
}

// testReusedBlockExact flushes rows of huge, which overflow the dot
// product with the all-ones centroid, before the fixture's rows.
func testReusedBlockExact[T blas.Float](t *testing.T, huge T) {
	const m, k, d = 8, 50, 32
	fresh, snap, rows := blockFixture[T](t, m, k, d)
	want := fresh.assignBlock(rows, m, snap)

	reused := &BatcherOf[T]{opts: fresh.opts}
	big := make([]T, m*d)
	for i := range big {
		big[i] = huge
	}
	reused.assignBlock(big, m, snap)
	got := reused.assignBlock(rows, m, snap)
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("row %d after a -Inf flush: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAssignBlockSteadyStateBytes gates the bytes a steady-state flush
// of the d32 benchmark shape (64 rows, k=1000, d=32) allocates. The
// float64 path keeps only its answers, about 2 KB: the centroid panel
// and the row-pair accumulator are the batcher's. The float32 path
// reuses its m×k block, so only Dgemm's pack buffer and the per-row
// outputs remain, against 551 KB when every flush allocated its block.
func TestAssignBlockSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	t.Run("float64", func(t *testing.T) { testSteadyStateBytes[float64](t, 4<<10) })
	t.Run("float32", func(t *testing.T) { testSteadyStateBytes[float32](t, 64<<10) })
}

func testSteadyStateBytes[T blas.Float](t *testing.T, limit uint64) {
	const m, k, d, calls = 64, 1000, 32, 20
	b, snap, rows := blockFixture[T](t, m, k, d)
	b.assignBlock(rows, m, snap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		b.assignBlock(rows, m, snap)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= limit {
		t.Fatalf("assignBlock allocates %d bytes per call, want < %d", per, limit)
	}
}

// panelCase draws the centroids and query rows of one shape for
// TestAssignPanelMatchesGemm. The "ties" fixture holds exact ties and
// signed zeros: centroid k-1 copies centroid 0, centroids 1 and k-2 are
// all zero, query row 0 equals centroid 0 (a distance whose identity
// can read below zero), and the last query row is all zero. The "huge"
// fixture puts magnitudes from 1e154 to 1e308 in every third row and
// centroid, all of it in every third after that, so norms and dot
// terms overflow to ±Inf and distances to NaN.
func panelCase(rng *rand.Rand, fixture string, m, k, d int) (cents, rows []float64) {
	cents = make([]float64, k*d)
	rows = make([]float64, m*d)
	for _, s := range [][]float64{cents, rows} {
		for i := range s {
			s[i] = rng.NormFloat64()
			if rng.Intn(9) == 0 {
				s[i] = math.Copysign(0, -1)
			}
		}
	}
	row := func(s []float64, i int) []float64 { return s[i*d : (i+1)*d] }
	switch fixture {
	case "ties":
		if k >= 2 {
			copy(row(cents, k-1), row(cents, 0))
		}
		if k >= 4 {
			clear(row(cents, 1))
			clear(row(cents, k-2))
		}
		copy(row(rows, 0), row(cents, 0))
		if m >= 2 {
			clear(row(rows, m-1))
		}
	case "huge":
		hugeVal := func() float64 {
			return math.Copysign(math.Pow(10, 154+154*rng.Float64()), rng.NormFloat64())
		}
		for _, sn := range []struct {
			s []float64
			n int
		}{{cents, k}, {rows, m}} {
			for i := 0; i < sn.n; i++ {
				r := row(sn.s, i)
				switch i % 6 {
				case 1, 4:
					r[rng.Intn(d)] = hugeVal()
				case 2:
					for p := range r {
						r[p] = hugeVal()
					}
				}
			}
		}
	}
	return cents, rows
}

// TestAssignPanelMatchesGemm holds the float64 block-free path to the
// GEMM path it replaced (Dgemm into a zeroed block, then the scan), bit
// for bit: every row's cluster id and raw distance, at every shape
// below, with the assembly kernels on and off and at 1 and 3 Threads.
// The shapes cover the row pair's odd row, the argmin's 8-lane steps
// and Go tail, d > 64, where the dot terms take more than one p block,
// and flushes large enough to split into row stripes (m·k·d ≥ 2^20)
// with a stripe of odd length.
func TestAssignPanelMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, fixture := range []string{"ties", "huge"} {
		for _, m := range []int{1, 2, 3, 64, 65} {
			for _, k := range []int{1, 3, 4, 5, 16, 17, 100, 500, 1000} {
				for _, d := range []int{1, 3, 16, 32, 64, 65, 130} {
					cents, rows := panelCase(rng, fixture, m, k, d)
					c := matrix.NewDense(k, d)
					copy(c.Data, cents)
					snap, err := NewRegistry(1).Publish("m", c)
					if err != nil {
						t.Fatal(err)
					}
					for _, asm := range []bool{true, false} {
						prev := blas.SetAsmEnabled(asm)
						for _, threads := range []int{1, 3} {
							b := &BatcherOf[float64]{opts: BatcherOptions{Threads: threads}.withDefaults()}
							want := b.assignGemm(rows, m, snap)
							got := b.assignBlock(rows, m, snap)
							label := fmt.Sprintf("%s m=%d k=%d d=%d asm=%v threads=%d",
								fixture, m, k, d, asm, threads)
							checkSameAnswers(t, label, got, want)
						}
						blas.SetAsmEnabled(prev)
					}
				}
			}
		}
	}
}

func checkSameAnswers(t *testing.T, label string, got, want []Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Cluster != want[i].Cluster || got[i].Version != want[i].Version ||
			math.Float64bits(got[i].SqDist) != math.Float64bits(want[i].SqDist) {
			t.Fatalf("%s: row %d got %+v, GEMM path %+v", label, i, got[i], want[i])
		}
	}
}

// TestAssignGemm32SplitParity checks that the float32 flush's answers
// do not depend on Threads once the flush is large enough to split
// (m·k·d ≥ 2^20), with the assembly kernels on and off. 67 rows give
// 3 threads stripes of 23, so rows 22 and 45, which share a row pair
// with a neighbour at 1 thread, run alone at 3. A flush below the
// threshold runs as one Dgemm row stripe at any Threads.
func TestAssignGemm32SplitParity(t *testing.T) {
	const m, k, d = 67, 1000, 32
	one, snap, rows := blockFixture[float32](t, m, k, d)
	three := &BatcherOf[float32]{opts: BatcherOptions{Threads: 3}.withDefaults()}
	for _, asm := range []bool{true, false} {
		prev := blas.SetAsmEnabled(asm)
		before := float32Stripes()
		got := three.assignBlock(rows, m, snap)
		if n := float32Stripes() - before; n != 3 {
			t.Fatalf("asm=%v: a %d×%d×%d flush at 3 threads ran %v row stripes, want 3", asm, m, k, d, n)
		}
		checkSameAnswers(t, fmt.Sprintf("asm=%v threads=3 against 1", asm), got, one.assignBlock(rows, m, snap))
		blas.SetAsmEnabled(prev)
	}
	before := float32Stripes()
	three.assignBlock(rows[:4*d], 4, snap)
	if n := float32Stripes() - before; n != 1 {
		t.Fatalf("a 4×%d×%d flush at 3 threads ran %v row stripes, want 1", k, d, n)
	}
}

// float32Stripes reads the float32 children of
// knor_blas_gemm_dispatch_total, which count Dgemm row stripes.
func float32Stripes() float64 {
	var n float64
	for _, fam := range telemetry.Default.Snapshot() {
		if fam.Name != "knor_blas_gemm_dispatch_total" {
			continue
		}
		for _, sm := range fam.Samples {
			if sm.Labels[0] == "asm32" || sm.Labels[0] == "go32" {
				n += sm.Value
			}
		}
	}
	return n
}

// TestAssignPanelFollowsSnapshot checks the panel cache: one batcher
// answering two models in turn, and a model across a republish, must
// answer every flush from the snapshot it names.
func TestAssignPanelFollowsSnapshot(t *testing.T) {
	const m, d = 5, 8
	reg := NewRegistry(1)
	rng := rand.New(rand.NewSource(61))
	publish := func(name string, k int) *Model {
		c := matrix.NewDense(k, d)
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		snap, err := reg.Publish(name, c)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	rows := make([]float64, m*d)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	a1, b1 := publish("a", 40), publish("b", 9)
	a2 := publish("a", 40)
	b := &BatcherOf[float64]{opts: BatcherOptions{}.withDefaults()}
	for i, snap := range []*Model{a1, b1, a1, a2, b1, a2} {
		checkSameAnswers(t, fmt.Sprintf("flush %d (%s v%d)", i, snap.Name, snap.Version),
			b.assignBlock(rows, m, snap), b.assignGemm(rows, m, snap))
	}
}

// BenchmarkAssignBlock times one flush's distance computation at the
// benchmark workloads' request shapes, single-threaded: d16 (4 rows,
// k=100, d=16), d32 (64 rows, k=1000, d=32) and one of the d32
// cluster's two shards (64 rows, k=500). k10000d64 (64 rows, k=10000,
// d=64) is a model whose 5 MB panel outgrows L2, where the block-free
// path loses to Dgemm + scan (EXPERIMENTS.md §Block-free float64
// flush).
func BenchmarkAssignBlock(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, d int
	}{{"d16", 4, 100, 16}, {"d32", 64, 1000, 32}, {"d32shard", 64, 500, 32}, {"k10000d64", 64, 10000, 64}} {
		b.Run(s.name, func(b *testing.B) {
			bat, snap, rows := blockFixture[float64](b, s.m, s.k, s.d)
			b.ReportAllocs()
			for b.Loop() {
				bat.assignBlock(rows, s.m, snap)
			}
		})
	}
}
