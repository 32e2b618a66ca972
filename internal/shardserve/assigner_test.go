package shardserve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"knor/internal/matrix"
	"knor/internal/serve"
)

func TestAssignerUnknownModel(t *testing.T) {
	sr := NewShardRegistry(2)
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer a.Close()
	if _, err := a.AssignBatch("ghost", matrix.NewDense(1, 3)); err == nil {
		t.Fatal("unknown model answered")
	}
}

// TestAssignerQuota parks a request behind a long MaxWait and checks
// the fan-out edge rejects the next one with ErrOverloaded before any
// shard burns GEMM time, then recovers once the first drains.
func TestAssignerQuota(t *testing.T) {
	sr := NewShardRegistry(2)
	if _, err := sr.Publish("m", seqCentroids(4, 3, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{
		MaxWait: time.Minute, ModelQuota: 1,
	})
	defer a.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := a.AssignBatch("m", matrix.NewDense(1, 3)); err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}()
	// Wait until the parked request is queued on the shards.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if a.Stats().Queued > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := a.AssignBatch("m", matrix.NewDense(1, 3))
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	// Another model is not affected by m's quota.
	if _, err := sr.Publish("other", seqCentroids(2, 3, 50)); err != nil {
		t.Fatal(err)
	}
	assignNudged(t, a, "other")
	wg.Wait()

	st := a.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected counter %d, want 1", st.Rejected)
	}
	if st.Requests != 2 {
		t.Errorf("requests counter %d, want 2", st.Requests)
	}
	// Quota released: the model answers again.
	assignNudged(t, a, "m")
}

// assignNudged answers one request against a batcher configured with a
// very long MaxWait by nudging Flush until the answer lands.
func assignNudged(t *testing.T, a *AssignerOf[float64], model string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := a.AssignBatch(model, matrix.NewDense(1, 3))
		done <- err
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("model %q request failed: %v", model, err)
			}
			return
		case <-deadline:
			t.Fatalf("model %q request never answered", model)
		default:
			a.Flush()
			time.Sleep(time.Millisecond)
		}
	}
}

func TestAssignerStats(t *testing.T) {
	sr := NewShardRegistry(3)
	if _, err := sr.Publish("m", seqCentroids(6, 4, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float32](sr, serve.BatcherOptions{})
	defer a.Close()
	rows := matrix.NewDense(5, 4)
	if _, err := a.AssignRows("m", rows); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Requests != 1 || st.Rows != 5 {
		t.Errorf("stats %+v, want 1 request / 5 rows", st)
	}
	if st.Flushes == 0 {
		t.Error("no shard flushes recorded")
	}
	if st.P50 <= 0 {
		t.Error("latency quantiles not recorded")
	}
}
