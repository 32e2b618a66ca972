package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"knor/internal/matrix"
)

// gridData draws n rows of d small integers, so rows repeat and many
// squared distances tie exactly. Integer sums are exact, so every
// engine's centroids agree bit for bit whatever order it adds rows in.
func gridData(n, d int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(n, d)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(3))
	}
	return m
}

// withNaN returns a copy of m whose row r holds a NaN.
func withNaN(m *matrix.Dense, r int) *matrix.Dense {
	m = m.Clone()
	m.Row(r)[1] = math.NaN()
	return m
}

// firstSeedRow is the row k-means++ picks as seed 0 for seed s.
func firstSeedRow(n int, s int64) int { return rand.New(rand.NewSource(s)).Intn(n) }

// runDiff describes the first way two results differ, or returns "".
// It compares every iteration's counters and the final assignment, and
// with sums also the centroids and SSE, which depend on the order rows
// were added to the cluster sums (see TestSeedingIsIterationZero).
// Float fields compare by bits, so NaN equals NaN and -0 differs from
// 0; simulated time and bytes, which RunSerial leaves out, are not
// compared.
func runDiff(got, want *Result, sums bool) string {
	if got.Iters != want.Iters || got.Converged != want.Converged {
		return fmt.Sprintf("iters %d converged %v, want %d %v", got.Iters, got.Converged, want.Iters, want.Converged)
	}
	for i, a := range want.Assign {
		if got.Assign[i] != a {
			return fmt.Sprintf("row %d assigned %d, want %d", i, got.Assign[i], a)
		}
	}
	for i, w := range want.PerIter {
		g := got.PerIter[i]
		if sums && math.Float64bits(g.Drift) != math.Float64bits(w.Drift) {
			return fmt.Sprintf("iteration %d drift %v, want %v", i, g.Drift, w.Drift)
		}
		g.SimSeconds, g.BytesWanted, g.BytesRead, g.Drift, w.Drift = 0, 0, 0, 0, 0
		if g != w {
			return fmt.Sprintf("iteration %d: %+v, want %+v", i, g, w)
		}
	}
	if !sums {
		return ""
	}
	for i, v := range want.Centroids.Data {
		if math.Float64bits(got.Centroids.Data[i]) != math.Float64bits(v) {
			return fmt.Sprintf("centroid value %d is %v, want %v", i, got.Centroids.Data[i], v)
		}
	}
	if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
		return fmt.Sprintf("SSE %v, want %v", got.SSE, want.SSE)
	}
	return ""
}

// seedingCases are data on which Run's fused iteration 0 must match
// RunSerial's scan: the d32 serving model's shape, rows that repeat
// and tie exactly, a NaN row (a NaN D²), a NaN in seed 0 (every D²
// NaN, so every row is scanned and none keeps seed 0), and an n, d and
// k that are not multiples of 8. exact marks integer data, whose
// cluster sums are exact in any order.
func seedingCases() []struct {
	name  string
	data  *matrix.Dense
	k, it int
	exact bool
} {
	grid := gridData(203, 5, 1)
	return []struct {
		name  string
		data  *matrix.Dense
		k, it int
		exact bool
	}{
		{"d32serve", testData(2000, 32, 10, 1), 1000, 2, false},
		{"ties", grid, 13, 6, true},
		{"nan-row", withNaN(grid, 17), 13, 3, true},
		{"nan-seed0", withNaN(grid, firstSeedRow(203, 3)), 13, 3, true},
		{"odd", testData(1203, 7, 10, 2), 61, 3, false},
	}
}

// TestSeedingIsIterationZero holds Run at one thread, whose iteration 0
// takes the k-means++ seeding's nearest seeds, to RunSerial, which
// scans all k centroids, bit for bit under both modes that take the
// seeding: every iteration's counters and assignments, and the
// centroids and SSE of a one-iteration run. Longer runs' centroids are
// compared on integer data only: Run folds a worker's summed deltas
// into the cluster sums where RunSerial adds each row to them, so from
// iteration 1 on float sums may round apart, with or without the
// seeding.
func TestSeedingIsIterationZero(t *testing.T) {
	for _, c := range seedingCases() {
		for _, pr := range []Prune{PruneNone, PruneMTI} {
			cfg := Config{K: c.k, Tol: -1, Init: InitKMeansPP, Seed: 3, Prune: pr, Threads: 1}
			label := c.name + "/" + pr.String()
			eng, err := NewEngine(c.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if eng.seeded == nil {
				t.Fatalf("%s: the engine did not keep its seeding", label)
			}
			nans := 0
			for _, v := range eng.seeded.d2 {
				if v != v {
					nans++
				}
			}
			if want := map[string]int{"nan-row": 1, "nan-seed0": c.data.Rows()}[c.name]; nans != want {
				t.Fatalf("%s: %d rows with a NaN D², want %d", label, nans, want)
			}
			for _, it := range []int{1, c.it} {
				cfg.MaxIters = it
				got, err := Run(c.data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunSerial(c.data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := runDiff(got, want, it == 1 || c.exact); d != "" {
					t.Errorf("%s, %d iterations: %s", label, it, d)
				}
			}
		}
	}
}

// TestSeedingTwoThreads runs the fused iteration 0 on two workers (the
// race detector watches the shared assignment and bound arrays). The
// workers' deltas merge in claim order, so only the iteration's
// assignment and counters are held to RunSerial.
func TestSeedingTwoThreads(t *testing.T) {
	for _, c := range seedingCases() {
		for _, pr := range []Prune{PruneNone, PruneMTI} {
			cfg := Config{K: c.k, MaxIters: 1, Init: InitKMeansPP, Seed: 3, Prune: pr, TaskSize: 64}
			want, err := RunSerial(c.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Threads = 2
			got, err := Run(c.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := runDiff(got, want, false); d != "" {
				t.Errorf("%s/%s: %s", c.name, pr, d)
			}
		}
	}
}

// TestSeedingKeptOnlyWhereExact pins which runs take the seeding as
// iteration 0, and that none holds it after its first pass.
func TestSeedingKeptOnlyWhereExact(t *testing.T) {
	data := testData(200, 4, 3, 1)
	for _, c := range []struct {
		cfg  Config
		want bool
	}{
		{Config{K: 5, Init: InitKMeansPP, Prune: PruneNone}, true},
		{Config{K: 5, Init: InitKMeansPP, Prune: PruneMTI}, true},
		{Config{K: 5, Init: InitKMeansPP, Prune: PruneTI}, false},
		{Config{K: 5, Init: InitKMeansPP, Prune: PruneYinyang}, false},
		{Config{K: 5, Init: InitKMeansPP, Prune: PruneMTI, Spherical: true}, false},
		{Config{K: 5, Init: InitForgy, Prune: PruneNone}, false},
	} {
		eng, err := NewEngine(data, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.seeded != nil; got != c.want {
			t.Errorf("%+v: kept seeding %v, want %v", c.cfg, got, c.want)
		}
		eng.Iterate(0)
		if eng.seeded != nil {
			t.Errorf("%+v: seeding held after iteration 0", c.cfg)
		}
	}
}
