package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"knor/internal/matrix"
)

// TestBatcherModelQuota parks a request behind a long MaxWait and
// checks backpressure: the next request for the same model fails fast
// with ErrOverloaded, other models are unaffected, and the quota
// releases once the parked request is answered.
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
	b := NewBatcher(reg, BatcherOptions{MaxWait: time.Minute, ModelQuota: 1})
	defer b.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.AssignBatch("m", matrix.NewDense(1, 2)); err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); b.Stats().Queued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("parked request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := b.AssignBatch("m", matrix.NewDense(1, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if st := b.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}

	// A different model still gets in (its own quota budget).
	otherDone := make(chan error, 1)
	go func() {
		_, err := b.AssignBatch("other", matrix.NewDense(1, 2))
		otherDone <- err
	}()
	deadline := time.After(10 * time.Second)
	for {
		b.Flush()
		select {
		case err := <-otherDone:
			if err != nil {
				t.Fatalf("other model rejected: %v", err)
			}
		case <-deadline:
			t.Fatal("other model never answered")
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	wg.Wait()

	// Quota released after the answer: m accepts again (and Flush
	// drains it without waiting out MaxWait).
	redo := make(chan error, 1)
	go func() {
		_, err := b.AssignBatch("m", matrix.NewDense(1, 2))
		redo <- err
	}()
	deadline = time.After(10 * time.Second)
	for {
		b.Flush()
		select {
		case err := <-redo:
			if err != nil {
				t.Fatalf("post-drain request failed: %v", err)
			}
		case <-deadline:
			t.Fatal("post-drain request never answered")
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	if st := b.Stats(); st.Requests != 3 {
		t.Errorf("requests counter %d, want 3", st.Requests)
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
