package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/sem"
	"knor/internal/telemetry"
	"knor/internal/workload"
)

func (t trainShape) spec(seed int64) workload.Spec {
	return workload.Spec{Kind: workload.NaturalClusters, N: t.N, D: t.D,
		Clusters: mixClusters, Spread: mixSpread, Seed: seed}
}

func (t trainShape) kmeansConfig(seed int64) kmeans.Config {
	return kmeans.Config{K: t.K, MaxIters: t.Iters, Init: kmeans.InitForgy,
		Prune: kmeans.PruneMTI, Threads: trainThreads, Seed: seed}
}

func (t trainShape) semConfig(seed int64) sem.Config {
	return sem.Config{Kmeans: t.kmeansConfig(seed), PageCacheBytes: t.CacheBytes,
		RowCacheBytes: t.CacheBytes, ICache: icache, PrefetchWorkers: prefetchers}
}

// trainer times full training runs of one engine. Every run, timed or
// not, is checked against the oracle outside the timing.
type trainer struct {
	name   string
	run    func() (*kmeans.Result, error)
	oracle *kmeans.Result
	secs   []float64 // wall time of every timed run
	peaks  []float64 // live-heap growth of every memory run, MB
	last   *kmeans.Result
}

// memory makes one untimed run that measures the engine's memory.
func (t *trainer) memory() error {
	var res *kmeans.Result
	peak, err := peakLiveMB(func() error {
		var err error
		res, err = t.run()
		return err
	})
	t.peaks = append(t.peaks, peak)
	return t.check(res, err)
}

// rep makes one timed run, after a collection so that no run pays for
// the garbage of the one before.
func (t *trainer) rep() error {
	runtime.GC()
	t0 := time.Now()
	res, err := t.run()
	el := time.Since(t0)
	if err := t.check(res, err); err != nil {
		return err
	}
	t.secs = append(t.secs, el.Seconds())
	t.last = res
	return nil
}

func (t *trainer) check(res *kmeans.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	if err := checkTrain(res, t.oracle); err != nil {
		return fmt.Errorf("%s: oracle check: %w", t.name, err)
	}
	return nil
}

// peakLiveMB runs fn and returns how far the live heap grew above its
// level before fn, in MB. The garbage collector runs at 1% heap growth
// for the duration, so the live-heap reading, which the runtime updates
// at each collection, follows the true peak closely.
func peakLiveMB(fn func() error) (float64, error) {
	runtime.GC()
	old := debug.SetGCPercent(1)
	defer debug.SetGCPercent(old)
	base := liveHeap()
	stop := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if v := liveHeap(); v > peak {
				peak = v
			}
			select {
			case <-t.C:
			case <-stop:
				return
			}
		}
	}()
	err := fn()
	runtime.GC()
	close(stop)
	wg.Wait()
	if peak < base {
		peak = base
	}
	return float64(peak-base) / 1e6, err
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedKnori drives one knori run through the engine's public phases,
// recording a span around each LocalPhase and ApplyGlobal call. The
// loop and its stop rule are kmeans.Run's.
func tracedKnori(data *matrix.Dense, cfg kmeans.Config, rec *recorder, trace string) (*kmeans.Result, error) {
	t0 := time.Now()
	root := rec.add(trace, "knori", 0, t0, t0)
	eng, err := kmeans.NewEngine(data, cfg)
	if err != nil {
		return nil, err
	}
	rec.add(trace, "knori/init", root, t0, time.Now())
	res := &kmeans.Result{}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		t := time.Now()
		st, local := eng.LocalPhase(iter)
		mid := time.Now()
		drift := eng.ApplyGlobal(local)
		end := time.Now()
		rec.add(trace, "kmeans.LocalPhase", root, t, mid)
		rec.add(trace, "kmeans.ApplyGlobal", root, mid, end)
		res.PerIter = append(res.PerIter, st)
		res.Iters = iter + 1
		if iter > 0 && (st.RowsChanged == 0 || drift <= cfg.Tol) {
			break
		}
	}
	t := time.Now()
	res.Centroids = eng.Centroids()
	res.Assign = eng.Assign()
	res.SSE = kmeans.SSEOf(data, res.Centroids, res.Assign)
	end := time.Now()
	rec.add(trace, "knori/finish", root, t, end)
	rec.setEnd(root, end)
	return res, nil
}

// tracedKnors drives one knors run step by step, recording a span
// around each sem.Engine.Step. It steps the oracle's iteration count,
// then Finish produces the result (running any step the oracle did
// not need, which the oracle check then rejects).
func tracedKnors(path string, cfg sem.Config, iters int, rec *recorder, trace string) (*kmeans.Result, error) {
	t0 := time.Now()
	root := rec.add(trace, "knors", 0, t0, t0)
	eng, err := sem.NewFromFile(path, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rec.add(trace, "knors/open", root, t0, time.Now())
	for i := 0; i < iters; i++ {
		t := time.Now()
		if err := eng.Step(); err != nil {
			return nil, err
		}
		rec.add(trace, "sem.Step", root, t, time.Now())
	}
	t := time.Now()
	res, err := eng.Finish()
	end := time.Now()
	rec.add(trace, "knors/finish", root, t, end)
	rec.setEnd(root, end)
	return res, err
}

// storeCounters reads the store layer's counters from the in-process
// telemetry registry, where knors' file backend reports them.
func storeCounters() (scrape, error) {
	var b bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}
