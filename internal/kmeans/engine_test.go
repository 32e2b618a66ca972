package kmeans

import (
	"testing"
	"testing/quick"

	"knor/internal/matrix"
	"knor/internal/numa"
	"knor/internal/sched"
)

func parCfg(k, threads int) Config {
	cfg := baseCfg(k)
	cfg.Threads = threads
	cfg.TaskSize = 64
	cfg.Topo = numa.Topology{Nodes: 4, CoresPerNode: 4}
	cfg.Sched = sched.NUMAAware
	return cfg
}

func TestParallelMatchesSerial(t *testing.T) {
	data := testData(1200, 8, 6, 21)
	serial, err := RunSerial(data, baseCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		for _, prune := range []Prune{PruneNone, PruneMTI, PruneTI} {
			cfg := parCfg(6, threads)
			cfg.Prune = prune
			res, err := Run(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != serial.Iters {
				t.Fatalf("T=%d prune=%v: iters %d vs serial %d", threads, prune, res.Iters, serial.Iters)
			}
			for i := range serial.Assign {
				if serial.Assign[i] != res.Assign[i] {
					t.Fatalf("T=%d prune=%v: row %d assignment differs", threads, prune, i)
				}
			}
			if !serial.Centroids.Equal(res.Centroids, 1e-9) {
				t.Fatalf("T=%d prune=%v: centroids differ", threads, prune)
			}
		}
	}
}

func TestParallelAllSchedulers(t *testing.T) {
	data := testData(1000, 8, 5, 22)
	serial, _ := RunSerial(data, baseCfg(5))
	for _, policy := range []sched.Policy{sched.Static, sched.FIFO, sched.NUMAAware} {
		cfg := parCfg(5, 4)
		cfg.Sched = policy
		cfg.Prune = PruneMTI
		res, err := Run(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Centroids.Equal(res.Centroids, 1e-9) {
			t.Fatalf("scheduler %v: centroids differ", policy)
		}
	}
}

func TestParallelAllPlacements(t *testing.T) {
	data := testData(800, 4, 4, 23)
	serial, _ := RunSerial(data, baseCfg(4))
	for _, place := range []numa.PlacementPolicy{numa.PlacePartitioned, numa.PlaceSingleBank, numa.PlaceInterleaved, numa.PlaceRandom} {
		cfg := parCfg(4, 4)
		cfg.Placement = place
		res, err := Run(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Centroids.Equal(res.Centroids, 1e-9) {
			t.Fatalf("placement %v changed the result", place)
		}
	}
}

func TestNUMAObliviousSlowerSimTime(t *testing.T) {
	// Figure 4's premise: with many threads, the NUMA-aware
	// configuration beats single-bank oblivious execution in simulated
	// time, and the result is identical.
	data := testData(4096, 16, 5, 24)
	aware := parCfg(5, 16)
	aware.MaxIters = 5
	aware.Tol = -1 // force all 5 iterations
	obl := aware
	obl.Placement = numa.PlaceSingleBank
	obl.NUMAOblivious = true
	ra, err := Run(data, aware)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(data, obl)
	if err != nil {
		t.Fatal(err)
	}
	if ro.SimSeconds <= ra.SimSeconds {
		t.Fatalf("oblivious (%g) not slower than aware (%g)", ro.SimSeconds, ra.SimSeconds)
	}
	if !ra.Centroids.Equal(ro.Centroids, 1e-9) {
		t.Fatal("NUMA policy changed numerical result")
	}
}

func TestSimTimeScalesWithThreads(t *testing.T) {
	data := testData(8192, 8, 5, 25)
	var prev float64
	for i, threads := range []int{1, 4, 16} {
		cfg := parCfg(5, threads)
		cfg.MaxIters = 3
		cfg.Tol = -1
		res, err := Run(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.SimSeconds >= prev {
			t.Fatalf("threads=%d sim time %g not faster than %g", threads, res.SimSeconds, prev)
		}
		prev = res.SimSeconds
	}
}

func TestIterStatsConsistency(t *testing.T) {
	data := testData(1000, 8, 5, 26)
	cfg := parCfg(5, 4)
	cfg.Prune = PruneMTI
	res, err := Run(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(1000)
	for _, st := range res.PerIter {
		if st.PrunedC1 > n {
			t.Fatalf("iter %d: C1=%d > n", st.Iter, st.PrunedC1)
		}
		if st.ActiveRows != int(n-st.PrunedC1) {
			t.Fatalf("iter %d: active=%d with C1=%d", st.Iter, st.ActiveRows, st.PrunedC1)
		}
		if st.BytesWanted != uint64(st.ActiveRows)*8*8 {
			t.Fatalf("iter %d: bytes=%d active=%d", st.Iter, st.BytesWanted, st.ActiveRows)
		}
		if st.SimSeconds <= 0 {
			t.Fatalf("iter %d: sim time %g", st.Iter, st.SimSeconds)
		}
	}
}

func TestMTIReducesSimTime(t *testing.T) {
	// Figure 8's premise: MTI beats no-pruning in time on clustered
	// data with identical results.
	data := testData(4096, 8, 8, 27)
	cfgN := parCfg(8, 8)
	cfgN.MaxIters = 30
	cfgM := cfgN
	cfgM.Prune = PruneMTI
	rn, _ := Run(data, cfgN)
	rm, _ := Run(data, cfgM)
	if rm.SimSeconds >= rn.SimSeconds {
		t.Fatalf("MTI (%g) not faster than none (%g)", rm.SimSeconds, rn.SimSeconds)
	}
	if !rn.Centroids.Equal(rm.Centroids, 1e-9) {
		t.Fatal("MTI changed result")
	}
}

func TestNaiveParallelMatchesSerial(t *testing.T) {
	data := testData(700, 4, 4, 28)
	serial, _ := RunSerial(data, baseCfg(4))
	cfg := baseCfg(4)
	cfg.Threads = 4
	cfg.TaskSize = 64
	res, err := RunNaiveParallel(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Centroids.Equal(res.Centroids, 1e-9) {
		t.Fatal("naive parallel centroids differ")
	}
	for i := range serial.Assign {
		if serial.Assign[i] != res.Assign[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestParallelSpherical(t *testing.T) {
	data := testData(600, 8, 4, 29)
	cfgS := baseCfg(4)
	cfgS.Spherical = true
	serial, _ := RunSerial(data, cfgS)
	cfg := parCfg(4, 4)
	cfg.Spherical = true
	res, err := Run(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Centroids.Equal(res.Centroids, 1e-9) {
		t.Fatal("parallel spherical centroids differ")
	}
}

// Property: for arbitrary small datasets, thread counts and pruning
// modes, the parallel engine reproduces the serial oracle.
func TestParallelEqualsSerialProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, kRaw, tRaw, pRaw uint8) bool {
		n := int(nRaw)%300 + 20
		k := int(kRaw)%5 + 2
		threads := int(tRaw)%6 + 1
		prune := Prune(int(pRaw) % 3)
		data := testData(n, 4, k, seed)
		cfg := baseCfg(k)
		cfg.Seed = seed
		cfg.MaxIters = 15
		serial, err := RunSerial(data, cfg)
		if err != nil {
			return false
		}
		pc := cfg
		pc.Threads = threads
		pc.TaskSize = 16
		pc.Topo = numa.Topology{Nodes: 2, CoresPerNode: 4}
		pc.Sched = sched.NUMAAware
		pc.Prune = prune
		res, err := Run(data, pc)
		if err != nil {
			return false
		}
		return serial.Centroids.Equal(res.Centroids, 1e-9) && serial.Iters == res.Iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTrain times knori (Run) on the benchmark's training shapes:
// the d16 shape (50000×16, 10 components, k=100, Forgy, 20 iterations)
// per pruning mode and thread count, and the model a d32 knorserve
// deployment trains at set-up (2000×32, k=1000, k-means++, MTI, 2
// iterations, 1 thread).
func BenchmarkTrain(b *testing.B) {
	d16 := testData(50_000, 16, 10, 1)
	d32 := testData(2_000, 32, 10, 1)
	for _, bc := range []struct {
		name    string
		data    *matrix.Dense
		cfg     Config
		threads int
	}{
		{"d16/none/t1", d16, Config{K: 100, MaxIters: 20, Init: InitForgy, Prune: PruneNone}, 1},
		{"d16/mti/t1", d16, Config{K: 100, MaxIters: 20, Init: InitForgy, Prune: PruneMTI}, 1},
		{"d16/mti/t2", d16, Config{K: 100, MaxIters: 20, Init: InitForgy, Prune: PruneMTI}, 2},
		{"d32serve/mti/t1", d32, Config{K: 1000, MaxIters: 2, Init: InitKMeansPP, Prune: PruneMTI}, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Seed, cfg.Threads, cfg.Tol = 1, bc.threads, -1
			for i := 0; i < b.N; i++ {
				if _, err := Run(bc.data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServingModel times kmeans.Run as POST /v1/models trains the
// benchmark's two serving models: k-means++, one thread, and the bound
// structure the server's trainConfig picks (MTI for k=100 over
// 2000×16, none for k=1000 over 2000×32).
func BenchmarkServingModel(b *testing.B) {
	for _, bc := range []struct {
		name     string
		d, k, it int
		prune    Prune
	}{
		{"d16", 16, 100, 5, PruneMTI},
		{"d32", 32, 1000, 2, PruneNone},
	} {
		data := testData(2_000, bc.d, 10, 1)
		cfg := Config{K: bc.k, MaxIters: bc.it, Init: InitKMeansPP, Prune: bc.prune, Seed: 1, Threads: 1}
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := Run(data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
