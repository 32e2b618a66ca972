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

// TestAssignBlockReusedBlockExact checks that the panel accumulator an
// earlier flush left holding -Inf answers the next flush exactly as a
// fresh one does, at both precisions.
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
// of the d32 benchmark shape (64 rows, k=1000, d=32) allocates. At
// either precision only the answers remain, about 2 KB: the centroid
// panel and the row-pair accumulator are the batcher's.
func TestAssignBlockSteadyStateBytes(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testSteadyStateBytes[float64](t, 4<<10) })
	t.Run("float32", func(t *testing.T) { testSteadyStateBytes[float32](t, 4<<10) })
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

// gemmScanAssign is the flush NearestRows replaced, kept as the answer
// the block-free path must reproduce bit for bit: Dgemm(−2, …,
// beta = 1) into a zeroed m×k block, then a strict-< scan of
// (block + ‖aᵢ‖²) + ‖cⱼ‖² from j = 0, on the snapshot's centroids and
// norms at T.
func gemmScanAssign[T blas.Float](a []T, m int, snap *Model) []Assignment {
	k, d := snap.K(), snap.Dims()
	cents, normsSq := centroidsOf[T](snap)
	dist := make([]T, m*k)
	blas.Dgemm(-2, a, m, d, cents.Data, k, 1, dist, 1)
	an := make([]T, m)
	blas.RowNormsSq(a, m, d, an)
	out := make([]Assignment, m)
	for i := range out {
		row := dist[i*k : (i+1)*k]
		best, bi := row[0]+an[i]+normsSq[0], 0
		for j := 1; j < k; j++ {
			if v := row[j] + an[i] + normsSq[j]; v < best {
				best, bi = v, j
			}
		}
		out[i] = Assignment{Cluster: int32(bi), SqDist: float64(best), Version: snap.Version}
	}
	return out
}

// panelCase draws the centroids and query rows of one shape for
// TestAssignPanelMatchesGemm. The "ties" fixture holds exact ties and
// signed zeros: centroid k-1 copies centroid 0, centroids 1 and k-2 are
// all zero, query row 0 equals centroid 0 (a distance whose identity
// can read below zero), and the last query row is all zero. The "huge"
// fixture puts magnitudes from 10^hugeExp to 10^(2·hugeExp) in every
// third row and centroid, all of it in every third after that, so
// norms and dot terms overflow to ±Inf and distances to NaN. The
// "boundary" fixture ties across column blocks: every centroid at a
// multiple of 64, where a block may start, copies the one before it,
// and query row r equals centroid 64(r+1)−1, the last of its block.
func panelCase(rng *rand.Rand, fixture string, m, k, d int, hugeExp float64) (cents, rows []float64) {
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
			return math.Copysign(math.Pow(10, hugeExp+hugeExp*rng.Float64()), rng.NormFloat64())
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
	case "boundary":
		for j := 64; j < k; j += 64 {
			copy(row(cents, j), row(cents, j-1))
		}
		for r := 0; r < m && 64*(r+1) < k; r++ {
			copy(row(rows, r), row(cents, 64*(r+1)-1))
		}
	}
	return cents, rows
}

// TestAssignPanelMatchesGemm holds the block-free flush to the GEMM
// path it replaced (Dgemm into a zeroed block, then the scan), bit for
// bit at both precisions: every row's cluster id and raw distance, at
// every shape below, with the assembly kernels on and off and at 1 and
// 3 Threads. The shapes cover the row pair's odd row, the argmin's
// 8-lane steps and Go tail, d > 64, where the dot terms take more than
// one p block, flushes large enough to split into row stripes
// (m·k·d ≥ 2^20) with a stripe of odd length, and panels past the
// 256 KiB column-block budget: k=500 and 1000 at d=130 (blocks of 192
// columns at float64, 448 at float32), k=1000 at d=64 (512 at float64)
// and k=3000 at d=32 (1024 at float64, 2048 at float32).
func TestAssignPanelMatchesGemm(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testPanelMatchesGemm[float64](t, 154) })
	t.Run("float32", func(t *testing.T) { testPanelMatchesGemm[float32](t, 19) })
}

func testPanelMatchesGemm[T blas.Float](t *testing.T, hugeExp float64) {
	rng := rand.New(rand.NewSource(60))
	type shape struct{ m, k, d int }
	var shapes []shape
	for _, m := range []int{1, 2, 3, 64, 65} {
		for _, k := range []int{1, 3, 4, 5, 16, 17, 100, 500, 1000} {
			for _, d := range []int{1, 3, 16, 32, 64, 65, 130} {
				shapes = append(shapes, shape{m, k, d})
			}
		}
	}
	for _, m := range []int{3, 65} {
		shapes = append(shapes, shape{m, 3000, 32})
	}
	for _, fixture := range []string{"ties", "huge", "boundary"} {
		for _, sh := range shapes {
			m, k, d := sh.m, sh.k, sh.d
			cents, rows64 := panelCase(rng, fixture, m, k, d, hugeExp)
			c := matrix.NewDense(k, d)
			copy(c.Data, cents)
			snap, err := NewRegistry(1).Publish("m", c)
			if err != nil {
				t.Fatal(err)
			}
			rows := matrix.Convert[T](&matrix.Dense{Data: rows64, RowsN: m, ColsN: d}).Data
			for _, asm := range []bool{true, false} {
				prev := blas.SetAsmEnabled(asm)
				want := gemmScanAssign(rows, m, snap)
				for _, threads := range []int{1, 3} {
					b := &BatcherOf[T]{opts: BatcherOptions{Threads: threads}.withDefaults()}
					label := fmt.Sprintf("%s m=%d k=%d d=%d asm=%v threads=%d",
						fixture, m, k, d, asm, threads)
					checkSameAnswers(t, label, b.assignBlock(rows, m, snap), want)
				}
				blas.SetAsmEnabled(prev)
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
			t.Fatalf("%s: row %d got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestAssignSplitParity checks that a flush's answers do not depend on
// Threads once the flush is large enough to split (m·k·d ≥ 2^20), at
// both precisions and with the assembly kernels on and off. 67 rows
// give 3 threads stripes of 23, so rows 22 and 45, which share a row
// pair with a neighbour at 1 thread, run alone at 3; the dispatch
// counter of the flush's width counts the 3 stripes. A flush below the
// threshold runs as one stripe at any Threads.
func TestAssignSplitParity(t *testing.T) {
	t.Run("float64", testSplitParity[float64])
	t.Run("float32", testSplitParity[float32])
}

func testSplitParity[T blas.Float](t *testing.T) {
	const m, k, d = 67, 1000, 32
	one, snap, rows := blockFixture[T](t, m, k, d)
	three := &BatcherOf[T]{opts: BatcherOptions{Threads: 3}.withDefaults()}
	for _, asm := range []bool{true, false} {
		prev := blas.SetAsmEnabled(asm)
		before := stripes[T]()
		got := three.assignBlock(rows, m, snap)
		if n := stripes[T]() - before; n != 3 {
			t.Fatalf("asm=%v: a %d×%d×%d flush at 3 threads ran %v row stripes, want 3", asm, m, k, d, n)
		}
		checkSameAnswers(t, fmt.Sprintf("asm=%v threads=3 against 1", asm), got, one.assignBlock(rows, m, snap))
		blas.SetAsmEnabled(prev)
	}
	before := stripes[T]()
	three.assignBlock(rows[:4*d], 4, snap)
	if n := stripes[T]() - before; n != 1 {
		t.Fatalf("a 4×%d×%d flush at 3 threads ran %v row stripes, want 1", k, d, n)
	}
}

// stripes reads the children of knor_blas_gemm_dispatch_total at T's
// width (asm32 and go32, or asm64 and go64), which count row stripes.
func stripes[T blas.Float]() float64 {
	width := fmt.Sprint(8 * blas.ElemBytes[T]())
	var n float64
	for _, fam := range telemetry.Default.Snapshot() {
		if fam.Name != "knor_blas_gemm_dispatch_total" {
			continue
		}
		for _, sm := range fam.Samples {
			if sm.Labels[0] == "asm"+width || sm.Labels[0] == "go"+width {
				n += sm.Value
			}
		}
	}
	return n
}

// TestAssignPanelFollowsSnapshot checks the panel cache at both
// precisions: one batcher answering two models in turn, and a model
// across a republish, must answer every flush from the snapshot it
// names.
func TestAssignPanelFollowsSnapshot(t *testing.T) {
	t.Run("float64", testPanelFollowsSnapshot[float64])
	t.Run("float32", testPanelFollowsSnapshot[float32])
}

func testPanelFollowsSnapshot[T blas.Float](t *testing.T) {
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
	rows := make([]T, m*d)
	for i := range rows {
		rows[i] = T(rng.NormFloat64())
	}
	a1, b1 := publish("a", 40), publish("b", 9)
	a2 := publish("a", 40)
	b := &BatcherOf[T]{opts: BatcherOptions{}.withDefaults()}
	for i, snap := range []*Model{a1, b1, a1, a2, b1, a2} {
		checkSameAnswers(t, fmt.Sprintf("flush %d (%s v%d)", i, snap.Name, snap.Version),
			b.assignBlock(rows, m, snap), gemmScanAssign(rows, m, snap))
	}
}

// BenchmarkAssignBlock times one flush's distance computation at both
// precisions at the benchmark workloads' request shapes,
// single-threaded: d16 (4 rows, k=100, d=16), d32 (64 rows, k=1000,
// d=32) and one of the d32 cluster's two shards (64 rows, k=500).
// k10000d64 (64 rows, k=10000, d=64) is a model whose 5 MB float64
// panel outgrows L2, which the flush walks in column blocks
// (EXPERIMENTS.md §Block-free float64 flush).
func BenchmarkAssignBlock(b *testing.B) {
	b.Run("float64", benchAssignBlock[float64])
	b.Run("float32", benchAssignBlock[float32])
}

func benchAssignBlock[T blas.Float](b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, d int
	}{{"d16", 4, 100, 16}, {"d32", 64, 1000, 32}, {"d32shard", 64, 500, 32}, {"k10000d64", 64, 10000, 64}} {
		b.Run(s.name, func(b *testing.B) {
			bat, snap, rows := blockFixture[T](b, s.m, s.k, s.d)
			b.ReportAllocs()
			for b.Loop() {
				bat.assignBlock(rows, s.m, snap)
			}
		})
	}
}
