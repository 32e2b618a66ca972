package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"knor/internal/kmeans"
	"knor/internal/serve"
	"knor/internal/workload"
)

// TestTrainConfig pins the two training settings the server owns:
// threads are clamped to [1, GOMAXPROCS], and MTI is used only while
// its k×k matrix is no larger than the n·d training coordinates.
func TestTrainConfig(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		k, threads, values int
		wantThreads        int
		wantPrune          kmeans.Prune
	}{
		{k: 100, threads: 1, values: 2000 * 16, wantThreads: 1, wantPrune: kmeans.PruneMTI},   // d16 serving model
		{k: 1000, threads: 1, values: 2000 * 32, wantThreads: 1, wantPrune: kmeans.PruneNone}, // d32 serving model
		{k: 4, threads: 1 << 20, values: 16, wantThreads: procs, wantPrune: kmeans.PruneMTI},  // k² = n·d
		{k: 4, threads: 0, values: 15, wantThreads: 1, wantPrune: kmeans.PruneNone},           // k² = n·d + 1
		{k: 3, threads: -3, values: 9, wantThreads: 1, wantPrune: kmeans.PruneMTI},
		{k: 0, threads: procs, values: 9, wantThreads: procs, wantPrune: kmeans.PruneNone},
		{k: 46340, threads: 2, values: math.MaxInt32, wantThreads: min(2, procs), wantPrune: kmeans.PruneMTI}, // no k*k overflow
		{k: 46341, threads: 2, values: math.MaxInt32, wantThreads: min(2, procs), wantPrune: kmeans.PruneNone},
		{k: math.MaxInt, threads: 1, values: math.MaxInt, wantThreads: 1, wantPrune: kmeans.PruneNone},
	} {
		req := createModelReq{K: c.k, Threads: c.threads, Iters: 7, Seed: 3}
		cfg := req.trainConfig(c.values)
		if cfg.Threads != c.wantThreads || cfg.Prune != c.wantPrune {
			t.Errorf("k=%d threads=%d over %d values: threads %d prune %v, want %d %v",
				c.k, c.threads, c.values, cfg.Threads, cfg.Prune, c.wantThreads, c.wantPrune)
		}
		if cfg.K != c.k || cfg.MaxIters != 7 || cfg.Seed != 3 || cfg.Init != kmeans.InitKMeansPP {
			t.Errorf("k=%d: request settings not carried: %+v", c.k, cfg)
		}
	}
}

// servingShape is one of the benchmark's serving models, trained by
// POST /v1/models on a NaturalClusters spec.
type servingShape struct {
	name           string
	k, n, d, iters int
}

var servingShapes = []servingShape{
	{name: "d16", k: 100, n: 2000, d: 16, iters: 5},
	{name: "d32", k: 1000, n: 2000, d: 32, iters: 2},
}

func (sh servingShape) spec(seed int64) workload.Spec {
	return workload.Spec{Kind: workload.NaturalClusters, N: sh.n, D: sh.d, Clusters: 10, Spread: 0.05, Seed: seed}
}

func (sh servingShape) body(seed int64) string {
	sp := sh.spec(seed)
	return fmt.Sprintf(`{"name":%q,"k":%d,"iters":%d,"seed":%d,"threads":1,`+
		`"spec":{"n":%d,"d":%d,"clusters":%d,"spread":%g,"seed":%d}}`,
		sh.name, sh.k, sh.iters, seed, sp.N, sp.D, sp.Clusters, sp.Spread, sp.Seed)
}

// TestCreateServingShapes trains both benchmark serving models through
// POST /v1/models and checks the published centroids bit for bit
// against kmeans.Run with MTI: whichever bound structure the server
// picks, the model is the one MTI trains.
func TestCreateServingShapes(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})
	for _, sh := range servingShapes {
		const seed = 5
		if code, out := postJSON(t, ts.URL+"/v1/models", sh.body(seed)); code != http.StatusCreated {
			t.Fatalf("%s: create answered %d: %v", sh.name, code, out)
		}
		want, err := kmeans.Run(workload.Generate(sh.spec(seed)), kmeans.Config{
			K: sh.k, MaxIters: sh.iters, Seed: seed, Init: kmeans.InitKMeansPP,
			Prune: kmeans.PruneMTI, Threads: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, ok := s.reg.Get(sh.name)
		if !ok {
			t.Fatalf("%s: not published", sh.name)
		}
		got := m.Centroids
		if got.Rows() != sh.k || got.Cols() != sh.d {
			t.Fatalf("%s: published %dx%d", sh.name, got.Rows(), got.Cols())
		}
		for i, v := range want.Centroids.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: centroid value %d is %v, MTI trains %v", sh.name, i, got.Data[i], v)
			}
		}
	}
}

// TestCreateAllocs gates the bytes one d32-shaped create allocates:
// generate 2000×32 rows, train k=1000, publish, and save the state
// file. MTI's 1000×1000 matrix alone would be 8 MB.
func TestCreateAllocs(t *testing.T) {
	const limit = 4 << 20
	sh := servingShapes[1]
	create := func(s *server, ts *httptest.Server, path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models", strings.NewReader(sh.body(9))))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
		}
		if err := serve.SaveState(s.reg, s.checkpoints(), path); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	warm, wts := newTestServer(t, serverOptions{})
	create(warm, wts, filepath.Join(dir, "warm.json"))
	s, ts := newTestServer(t, serverOptions{})
	// Two collections empty sync.Pools such as encoding/json's
	// encoder buffers, as a server's saves find them after a while.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	create(s, ts, filepath.Join(dir, "state.json"))
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one d32 create allocated %d bytes", got)
	if got >= limit {
		t.Fatalf("one d32 create allocated %d bytes, want < %d", got, limit)
	}
}
