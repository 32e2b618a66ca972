package kmeans

import (
	"math"
	"testing"

	"knor/internal/matrix"
	"knor/internal/workload"
)

func TestInitForgyDistinctRows(t *testing.T) {
	data := testData(100, 4, 3, 31)
	c := initForgy(data, 10, 7)
	if c.Rows() != 10 || c.Cols() != 4 {
		t.Fatalf("dims %dx%d", c.Rows(), c.Cols())
	}
	// Each centroid must be an actual data row.
	for i := 0; i < c.Rows(); i++ {
		found := false
		for r := 0; r < data.Rows(); r++ {
			if matrix.SqDist(c.Row(i), data.Row(r)) == 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("centroid %d is not a data row", i)
		}
	}
	// Distinct.
	for i := 0; i < c.Rows(); i++ {
		for j := i + 1; j < c.Rows(); j++ {
			if matrix.SqDist(c.Row(i), c.Row(j)) == 0 {
				t.Fatalf("centroids %d and %d identical", i, j)
			}
		}
	}
}

func TestInitDeterministic(t *testing.T) {
	data := testData(200, 4, 3, 32)
	for _, init := range []Init{InitForgy, InitRandomPartition, InitKMeansPP} {
		cfg := Config{K: 4, Init: init, Seed: 5}
		a := initCentroids(data, cfg)
		b := initCentroids(data, cfg)
		if !a.Equal(b, 0) {
			t.Fatalf("%v not deterministic", init)
		}
	}
}

func TestInitRandomPartitionNearGlobalMean(t *testing.T) {
	data := testData(2000, 4, 3, 33)
	c := initRandomPartition(data, 3, 9)
	// Random-partition means cluster centres all near the global mean.
	mean := make([]float64, 4)
	for i := 0; i < data.Rows(); i++ {
		matrix.AddTo(mean, data.Row(i))
	}
	matrix.Scale(mean, 1/float64(data.Rows()))
	for g := 0; g < 3; g++ {
		if matrix.Dist(c.Row(g), mean) > 0.2 {
			t.Fatalf("partition centroid %d far from mean: %g", g, matrix.Dist(c.Row(g), mean))
		}
	}
}

func TestKMeansPPSpreadsSeeds(t *testing.T) {
	// On well separated clusters, k-means++ should pick seeds in
	// distinct clusters far more often than Forgy picks from the
	// head-heavy power-law component. Check the seeds are pairwise
	// farther apart on average than Forgy's.
	spec := workload.Spec{Kind: workload.NaturalClusters, N: 3000, D: 8, Clusters: 8, Spread: 0.02, Seed: 44}
	data := workload.Generate(spec)
	avgPair := func(c *matrix.Dense) float64 {
		var s float64
		var cnt int
		for i := 0; i < c.Rows(); i++ {
			for j := i + 1; j < c.Rows(); j++ {
				s += matrix.Dist(c.Row(i), c.Row(j))
				cnt++
			}
		}
		return s / float64(cnt)
	}
	var ppSum, forgySum float64
	for seed := int64(0); seed < 5; seed++ {
		pp, _ := initKMeansPP(data, 8, seed, nil)
		ppSum += avgPair(pp)
		forgySum += avgPair(initForgy(data, 8, seed))
	}
	if ppSum <= forgySum {
		t.Fatalf("kmeans++ seeds (%g) not better spread than forgy (%g)", ppSum, forgySum)
	}
}

func TestKMeansPPImprovesSSE(t *testing.T) {
	data := testData(1500, 8, 10, 45)
	var ppSSE, forgySSE float64
	for seed := int64(0); seed < 3; seed++ {
		cfgPP := Config{K: 10, MaxIters: 30, Init: InitKMeansPP, Seed: seed}
		cfgF := Config{K: 10, MaxIters: 30, Init: InitForgy, Seed: seed}
		rp, err := RunSerial(data, cfgPP)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := RunSerial(data, cfgF)
		if err != nil {
			t.Fatal(err)
		}
		ppSSE += rp.SSE
		forgySSE += rf.SSE
	}
	if ppSSE > forgySSE*1.5 {
		t.Fatalf("kmeans++ SSE %g much worse than forgy %g", ppSSE, forgySSE)
	}
}

func TestInitGiven(t *testing.T) {
	data := testData(100, 4, 3, 46)
	given := matrix.NewDense(3, 4)
	for i := 0; i < 3; i++ {
		copy(given.Row(i), data.Row(i*10))
	}
	cfg := Config{K: 3, MaxIters: 20, Init: InitGiven, Centroids: given}
	res, err := RunSerial(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters == 0 {
		t.Fatal("no iterations ran")
	}
	// The given matrix must not be mutated by the run.
	for i := 0; i < 3; i++ {
		if matrix.SqDist(given.Row(i), data.Row(i*10)) != 0 {
			t.Fatal("InitGiven mutated caller's centroids")
		}
	}
}

func TestNormalizeRows(t *testing.T) {
	m, _ := matrix.FromRows([][]float64{{3, 4}, {0, 0}, {5, 12}})
	normalizeRows(m)
	if math.Abs(matrix.Norm(m.Row(0))-1) > 1e-12 {
		t.Fatalf("row 0 norm %g", matrix.Norm(m.Row(0)))
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero row modified")
	}
	if math.Abs(m.At(2, 0)-5.0/13) > 1e-12 {
		t.Fatalf("row 2 = %v", m.Row(2))
	}
}
