package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"knor/internal/matrix"
)

// TestBatcherModelQuota parks a request's flush on the registry lock
// and checks backpressure: the next request for the same model fails
// fast with ErrOverloaded before any GEMM runs, another model is
// admitted while the first is parked, and the quota releases once the
// parked request is answered.
func TestBatcherModelQuota(t *testing.T) {
	reg := NewRegistry(1)
	cents := matrix.NewDense(3, 2)
	for i := range cents.Data {
		cents.Data[i] = float64(i)
	}
	if _, err := reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("other", cents); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(reg, BatcherOptions{ModelQuota: 1})
	t.Cleanup(b.Close)

	answered := make(chan error, 2)
	assign := func(model string) {
		_, err := b.AssignBatch(model, matrix.NewDense(1, 2))
		answered <- err
	}
	release := parkFirstFlush(t, b, reg, func() { go assign("m") })

	// Refused at once: an admitted request would block behind the
	// parked flush.
	second := make(chan error, 1)
	go func() {
		_, err := b.AssignBatch("m", matrix.NewDense(1, 2))
		second <- err
	}()
	select {
	case err := <-second:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("expected ErrOverloaded, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request for m was admitted behind the parked flush, not refused")
	}
	if st := b.Stats(); st.Rejected != 1 || st.Flushes != 0 {
		t.Fatalf("after the rejection: rejected %d (want 1), flushes %d (want 0: no GEMM yet)",
			st.Rejected, st.Flushes)
	}

	// A different model is admitted (its own quota budget) while m's
	// request is parked.
	go assign("other")
	waitFor(t, "the other model's request to be admitted", func() bool {
		return b.InFlight()["other"] == 1
	})
	if st := b.Stats(); st.Rejected != 1 {
		t.Fatalf("other model rejected: rejected counter %d, want 1", st.Rejected)
	}
	release()
	for i := 0; i < 2; i++ {
		select {
		case err := <-answered:
			if err != nil {
				t.Fatalf("admitted request failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted requests never answered")
		}
	}

	// Quota released after the answer: m accepts again.
	if _, err := b.AssignBatch("m", matrix.NewDense(1, 2)); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
	if st := b.Stats(); st.Requests != 3 || st.Rejected != 1 {
		t.Errorf("requests %d (want 3), rejected %d (want 1)", st.Requests, st.Rejected)
	}
}

// TestBatcherQuotaUnlimited: the zero value imposes no bound.
func TestBatcherQuotaUnlimited(t *testing.T) {
	reg := NewRegistry(1)
	cents := matrix.NewDense(2, 2)
	cents.Data = []float64{0, 0, 1, 1}
	if _, err := reg.Publish("m", cents); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(reg, BatcherOptions{})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.AssignBatch("m", matrix.NewDense(4, 2)); err != nil {
				t.Errorf("unlimited batcher rejected: %v", err)
			}
		}()
	}
	wg.Wait()
	if st := b.Stats(); st.Rejected != 0 {
		t.Errorf("rejected %d requests with no quota", st.Rejected)
	}
}
