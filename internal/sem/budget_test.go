package sem

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"knor/internal/kmeans"
	"knor/internal/store"
)

// TestFileRunHoldsBudget: a file-backed knors run holds its O(n) state,
// its page cache and its row cache, and little else. On the benchmark's
// d16 training shape (caches each one eighth of the data) the live heap
// may grow above the run's own model, Result.MemoryBytes, by 256 KB for
// the read buffers of the readers and prefetch workers, plus 15% for the
// caches' bookkeeping and a pass's garbage that a collection has not yet
// found dead.
func TestFileRunHoldsBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures a full d16-sized run's heap")
	}
	const n, d = 50000, 16
	path := filepath.Join(t.TempDir(), "d16.knor")
	if err := store.WriteDense(semData(n, d, 10, 1), path, 8); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Kmeans: kmeans.Config{K: 100, MaxIters: 20, Init: kmeans.InitForgy,
			Prune: kmeans.PruneMTI, Threads: 2, Seed: 1},
		PageCacheBytes:  n * d * 8 / 8,
		RowCacheBytes:   n * d * 8 / 8,
		PrefetchWorkers: 2,
	}
	var res *kmeans.Result
	peak := peakLiveBytes(t, func() {
		var err error
		if res, err = RunFile(path, cfg); err != nil {
			t.Fatal(err)
		}
	})
	model := res.MemoryBytes
	if limit := model + model*15/100 + 256<<10; peak > limit {
		t.Fatalf("live heap grew %.2f MB over the run, %.0f%% above its %.2f MB model (limit %.2f MB)",
			float64(peak)/1e6, 100*(float64(peak)/float64(model)-1), float64(model)/1e6, float64(limit)/1e6)
	}
	t.Logf("live heap grew %.2f MB, model %.2f MB", float64(peak)/1e6, float64(model)/1e6)
}

// peakLiveBytes runs fn with the collector at 1% heap growth and
// returns how far the live heap, sampled every millisecond, rose above
// its level before fn.
func peakLiveBytes(t *testing.T, fn func()) uint64 {
	t.Helper()
	live := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	base := live()
	peak := base
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, live())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	fn()
	runtime.GC()
	close(stop)
	wg.Wait()
	return peak - base
}

// TestStepAllocs: a file-backed compute pass hints its row-cache
// misses to the read-ahead without listing them and reuses its
// workers' distance rows, so once the row cache has taken its arenas a
// Step allocates little beyond the next centroids and the page cache's
// occasional buffer: up to 27 KB in 150 runs, where a pass that makes
// each task's hint list anew, regrown by append to up to 8192 rows,
// allocates 72–116 KB in each of these Steps.
func TestStepAllocs(t *testing.T) {
	const n, d, limit = 20000, 8, 48 << 10
	path := filepath.Join(t.TempDir(), "steps.knor")
	if err := store.WriteDense(semData(n, d, 10, 1), path, 8); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Kmeans: kmeans.Config{K: 10, MaxIters: 20, Tol: -1, Init: kmeans.InitForgy,
			Prune: kmeans.PruneMTI, Threads: 2, Seed: 1},
		PageCacheBytes: n * d * 8 / 8, RowCacheBytes: n * d * 8 / 8, PrefetchWorkers: 2, ICache: 2,
	}
	e, err := NewFromFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Iteration 2 is the first refresh, which sizes the row cache's
	// arenas; iteration 6 is the next.
	for e.iter < 6 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, refresh := range []bool{true, false} {
		if got := e.rc.IsRefreshIteration(e.iter); got != refresh {
			t.Fatalf("iteration %d: refresh %v, want %v", e.iter, got, refresh)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("iteration %d (refresh %v) allocated %d bytes, want <= %d", e.iter-1, refresh, got, limit)
		}
	}
}
