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
