package kmeans

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"knor/internal/blas"
	"knor/internal/matrix"
)

// boundsHash is an FNV-1a digest of an engine's centroids and every
// bound its pruning state holds. Bounds carry distances bit for bit, so
// a distance kernel that moved one low bit shows here even when no
// assignment or counter moved.
func boundsHash[T blas.Float](e *EngineOf[T]) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range [][]T{e.cents.Data, e.ps.UB, e.ps.CC, e.ps.SHalf, e.ps.LB, e.ps.LBG, e.ps.Drift} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func runBounds[T blas.Float](t *testing.T, data *matrix.Mat[T], cfg Config, iters int) uint64 {
	t.Helper()
	e, err := NewEngine(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		e.Iterate(it)
	}
	e.ps.UpdateCentroidDists(e.cents)
	return boundsHash(e)
}

// boundsGoldens were captured from the scalar SqDist loops, before
// training's dense scans moved to blas.SqDistRows.
var boundsGoldens = map[string]uint64{
	"n400d13k12/forgy/mti/f32":       0xbdf4695004546622,
	"n400d13k12/forgy/mti/f64":       0x3407762b768f51d3,
	"n400d13k12/forgy/ti/f32":        0xcc24ea45b952ad75,
	"n400d13k12/forgy/ti/f64":        0xe273115122c5d61b,
	"n400d13k12/forgy/yinyang/f32":   0x90554d0d39f6fced,
	"n400d13k12/forgy/yinyang/f64":   0x7c24a3393b3cca10,
	"n200d5k5/kmeans++/mti/f32":      0xefae007d82d33028,
	"n200d5k5/kmeans++/mti/f64":      0x582ef2777a7990dd,
	"n200d5k5/kmeans++/ti/f32":       0xbd86446719fdc363,
	"n200d5k5/kmeans++/ti/f64":       0x852211d7399a214a,
	"n200d5k5/kmeans++/yinyang/f32":  0xc60a70ab9b1c1a89,
	"n200d5k5/kmeans++/yinyang/f64":  0xe6b342878359b090,
	"n1200d32k1000/kmeans++/mti/f32": 0x15e4f662683a4d5c,
	"n1200d32k1000/kmeans++/mti/f64": 0x00e6af6bebaf6bd9,
}

// TestBoundsGolden pins the bound state the pruned engines reach on the
// golden shapes of TestTrainingGolden: iteration 0's unpruned scan sets
// UB and LB/LBG, every iteration refreshes CC and SHalf, and the last
// centroids' CC is taken after the run.
func TestBoundsGolden(t *testing.T) {
	shapes := []struct {
		name        string
		n, d, k, it int
		init        Init
	}{
		{"n400d13k12", 400, 13, 12, 4, InitForgy},
		{"n200d5k5", 200, 5, 5, 4, InitKMeansPP},
		{"n1200d32k1000", 1200, 32, 1000, 2, InitKMeansPP},
	}
	checked := 0
	for _, sh := range shapes {
		data := testData(sh.n, sh.d, 10, 7)
		for _, pr := range []Prune{PruneMTI, PruneTI, PruneYinyang} {
			if sh.k == 1000 && pr != PruneMTI {
				continue // the d32 deployment's model; MTI keeps the race run short
			}
			cfg := Config{K: sh.k, Init: sh.init, Seed: 3, Threads: 1, TaskSize: 64, Prune: pr}
			label := fmt.Sprintf("%s/%s/%s", sh.name, sh.init, pr)
			got := map[string]uint64{
				label + "/f64": runBounds(t, data, cfg, sh.it),
				label + "/f32": runBounds(t, matrix.Convert[float32](data), cfg, sh.it),
			}
			for l, h := range got {
				checked++
				if want, ok := boundsGoldens[l]; !ok || h != want {
					t.Errorf("%q: %#016x, // want %#016x", l, h, want)
				}
			}
		}
	}
	if checked != len(boundsGoldens) {
		t.Errorf("checked %d runs against %d goldens", checked, len(boundsGoldens))
	}
}
