package serve

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/workload"
)

func testModel(t *testing.T, r *Registry, name string, k, d int, seed int64) (*Model, *matrix.Dense) {
	t.Helper()
	data := workload.Generate(workload.Spec{
		Kind: workload.NaturalClusters, N: 2000, D: d, Clusters: k, Spread: 0.05, Seed: seed,
	})
	res, err := kmeans.RunSerial(data, kmeans.Config{K: k, Init: kmeans.InitKMeansPP, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Publish(name, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	return m, data
}

// bruteNearest is the oracle the batched GEMM path must match.
func bruteNearest(row []float64, c *matrix.Dense) (int32, float64) {
	best, bi := math.Inf(1), 0
	for j := 0; j < c.Rows(); j++ {
		if d := matrix.SqDist(row, c.Row(j)); d < best {
			best, bi = d, j
		}
	}
	return int32(bi), best
}

func TestBatcherMatchesBruteForce(t *testing.T) {
	reg := NewRegistry(4)
	snap, data := testModel(t, reg, "m", 8, 6, 3)
	b := NewBatcher(reg, BatcherOptions{MaxBatch: 64, MaxWait: time.Millisecond})
	defer b.Close()
	q := workload.NewQueryStream(workload.Spec{
		Kind: workload.NaturalClusters, N: 0, D: 6, Clusters: 8, Spread: 0.05, Seed: 3,
	}, 99)
	rows := q.Next(200)
	got, err := b.AssignBatch("m", rows)
	if err != nil {
		t.Fatal(err)
	}
	_ = data
	for i := 0; i < rows.Rows(); i++ {
		wantC, wantD := bruteNearest(rows.Row(i), snap.Centroids)
		if got[i].Cluster != wantC {
			t.Fatalf("row %d: cluster %d, want %d", i, got[i].Cluster, wantC)
		}
		if math.Abs(got[i].SqDist-wantD) > 1e-9*(1+wantD) {
			t.Fatalf("row %d: sqdist %v, want %v", i, got[i].SqDist, wantD)
		}
		if got[i].Version != snap.Version {
			t.Fatalf("row %d answered by version %d, want %d", i, got[i].Version, snap.Version)
		}
	}
}

func TestBatcherConcurrentRequestsCoalesce(t *testing.T) {
	reg := NewRegistry(4)
	snap, _ := testModel(t, reg, "m", 5, 4, 7)
	b := NewBatcher(reg, BatcherOptions{MaxBatch: 256, MaxWait: 2 * time.Millisecond})
	defer b.Close()
	q := workload.NewQueryStream(workload.Spec{
		Kind: workload.NaturalClusters, D: 4, Clusters: 5, Spread: 0.05, Seed: 7,
	}, 42)
	const G, per = 16, 25
	batches := make([]*matrix.Dense, G)
	for g := range batches {
		batches[g] = q.Next(per)
	}
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			as, err := b.AssignBatch("m", batches[g])
			if err != nil {
				errs <- err
				return
			}
			for i := range as {
				wantC, _ := bruteNearest(batches[g].Row(i), snap.Centroids)
				if as[i].Cluster != wantC {
					errs <- errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Requests != G || st.Rows != G*per {
		t.Fatalf("stats lost requests: %+v", st)
	}
	if st.Flushes == 0 || st.Flushes > st.Requests {
		t.Fatalf("flushes out of range: %+v", st)
	}
	if math.IsNaN(st.P50) || math.IsNaN(st.P99) || st.P99 < st.P50 {
		t.Fatalf("latency quantiles malformed: %+v", st)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "batched assignment disagrees with brute force" }

func TestBatcherErrors(t *testing.T) {
	reg := NewRegistry(2)
	testModel(t, reg, "m", 3, 4, 1)
	b := NewBatcher(reg, BatcherOptions{MaxWait: time.Millisecond})
	if _, err := b.Assign("nope", []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := b.Assign("m", []float64{1, 2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if as, err := b.AssignBatch("m", matrix.NewDense(0, 4)); err != nil || as != nil {
		t.Fatalf("empty batch: %v %v", as, err)
	}
	b.Close()
	if _, err := b.Assign("m", []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("closed batcher accepted a request")
	}
	b.Close() // second close is a no-op
}

// TestBatcherIdleNoLinger pins the default no-linger policy: a lone
// request on an idle batcher is flushed as soon as the flusher wakes,
// not after a timer. Any timer under 1ms would still cost a full
// millisecond per call here, because an idle P's netpoll sleep rounds
// sub-millisecond delays up to 1ms. The bound is on the median call,
// so a few calls stalled by a busy machine or the race detector cannot
// fail it; a lingering batcher puts every call above it.
func TestBatcherIdleNoLinger(t *testing.T) {
	reg := NewRegistry(2)
	snap, _ := testModel(t, reg, "m", 4, 3, 5)
	b := NewBatcher(reg, BatcherOptions{})
	defer b.Close()
	row := []float64{0.1, 0.2, 0.3}
	wantC, _ := bruteNearest(row, snap.Centroids)
	const calls = 500
	took := make([]time.Duration, calls)
	for i := range took {
		m := matrix.NewDense(1, 3)
		copy(m.Data, row)
		start := time.Now()
		as, err := b.AssignBatch("m", m)
		took[i] = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if as[0].Cluster != wantC {
			t.Fatalf("call %d: cluster %d, want %d", i, as[0].Cluster, wantC)
		}
	}
	slices.Sort(took)
	if med := took[calls/2]; med >= 500*time.Microsecond {
		t.Fatalf("median single-row call took %v, want < 500µs (linger timer on the idle path?); max %v", med, took[calls-1])
	}
}

// TestBatcherCoalescesDuringFlush checks natural batching: requests
// that queue while a flush is running are all taken by the next flush.
// Holding the registry's write lock parks the first flush inside
// reg.Get, so the interleaving is deterministic.
func TestBatcherCoalescesDuringFlush(t *testing.T) {
	reg := NewRegistry(2)
	snap, _ := testModel(t, reg, "m", 6, 4, 11)
	b := NewBatcher(reg, BatcherOptions{})
	defer b.Close()
	q := workload.NewQueryStream(workload.Spec{
		Kind: workload.NaturalClusters, D: 4, Clusters: 6, Spread: 0.05, Seed: 11,
	}, 3)
	const later = 8
	rows := make([]*matrix.Dense, 1+later)
	for i := range rows {
		rows[i] = q.Next(1)
	}
	got := make([][]Assignment, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = b.AssignBatch("m", rows[i])
		}()
	}
	// poll waits for cond; on timeout it releases the lock first so the
	// parked flush, and with it Close, can finish.
	poll := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				reg.mu.Unlock()
				t.Fatalf("timed out waiting for %s: %+v", what, b.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	reg.mu.Lock()
	send(0)
	// The first request stays in flight until answered, which the held
	// lock prevents; once the queue is empty again the flusher has taken
	// it and is blocked in reg.Get.
	poll("first flush to start", func() bool {
		return b.InFlight()["m"] == 1 && b.Stats().Queued == 0
	})
	for i := 1; i <= later; i++ {
		send(i)
	}
	poll("requests to queue behind the flush", func() bool { return b.Stats().Queued == later })
	reg.mu.Unlock()
	wg.Wait()
	// Close waits for the flusher, so the flush counter (bumped after
	// answers are posted) is final.
	b.Close()

	for i := range rows {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		wantC, wantD := bruteNearest(rows[i].Row(0), snap.Centroids)
		if got[i][0].Cluster != wantC || math.Abs(got[i][0].SqDist-wantD) > 1e-9*(1+wantD) {
			t.Fatalf("request %d: got %+v, want cluster %d sqdist %v", i, got[i][0], wantC, wantD)
		}
	}
	if st := b.Stats(); st.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2 (first request alone, then the %d queued behind it together)", st.Flushes, later)
	}
}
