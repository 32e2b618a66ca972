package shardserve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"knor/internal/matrix"
	"knor/internal/serve"
	"knor/internal/telemetry"
)

func TestAssignerUnknownModel(t *testing.T) {
	sr := NewShardRegistry(2)
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{})
	defer a.Close()
	if _, err := a.AssignBatch("ghost", matrix.NewDense(1, 3)); err == nil {
		t.Fatal("unknown model answered")
	}
}

// parkRegistries holds the write lock of every registry in regs, so a
// flush on any of them parks in Registry.Get, and returns the function
// that releases them. It relies on the documented contract that
// OnPublish hooks run under the registry lock: each registry gets a
// hook that blocks on a channel, entered by a throwaway publish from a
// goroutine. The registries are also released at cleanup if the test
// ends first; register the assigner's Close with t.Cleanup before
// parking, so the parked flushes can finish before it runs.
func parkRegistries(t *testing.T, regs ...*serve.Registry) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	release = sync.OnceFunc(func() {
		close(gate)
		wg.Wait()
	})
	t.Cleanup(release)
	for _, reg := range regs {
		held := make(chan struct{}, 1)
		reg.OnPublish(func(m *serve.Model) {
			if m.Name == "park" {
				held <- struct{}{}
				<-gate
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Publish("park", matrix.NewDense(1, 1)); err != nil {
				t.Errorf("park publish: %v", err)
			}
		}()
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("park hook never ran")
		}
	}
	return release
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAssignerQuota parks the shard flushes on their registries' locks
// and checks the fan-out edge rejects the next request for the parked
// model with ErrOverloaded before any shard burns GEMM time, admits
// another model meanwhile, and admits the first model again once its
// parked request is answered.
func TestAssignerQuota(t *testing.T) {
	sr := NewShardRegistry(2)
	if _, err := sr.Publish("m", seqCentroids(4, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Publish("other", seqCentroids(2, 3, 50)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float64](sr, serve.BatcherOptions{ModelQuota: 1})
	t.Cleanup(a.Close)
	release := parkRegistries(t, sr.Registry(0), sr.Registry(1))

	answered := make(chan error, 2)
	assign := func(model string) {
		_, err := a.AssignBatch(model, matrix.NewDense(1, 3))
		answered <- err
	}
	go assign("m")
	waitFor(t, "m's request to be admitted", func() bool { return a.InFlight()["m"] == 1 })
	// Refused at once: an admitted request would block behind the
	// parked shard flushes.
	second := make(chan error, 1)
	go func() {
		_, err := a.AssignBatch("m", matrix.NewDense(1, 3))
		second <- err
	}()
	select {
	case err := <-second:
		if !errors.Is(err, serve.ErrOverloaded) {
			t.Fatalf("expected ErrOverloaded, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request for m was admitted behind the parked flushes, not refused")
	}
	if st := a.Stats(); st.Rejected != 1 || st.Flushes != 0 {
		t.Fatalf("after the rejection: rejected %d (want 1), shard flushes %d (want 0: no GEMM yet)",
			st.Rejected, st.Flushes)
	}
	// Another model is not affected by m's quota.
	go assign("other")
	waitFor(t, "the other model's request to be admitted", func() bool {
		return a.InFlight()["other"] == 1
	})
	if st := a.Stats(); st.Rejected != 1 {
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
	if st := a.Stats(); st.Requests != 2 {
		t.Errorf("requests counter %d, want 2", st.Requests)
	}
	// Quota released: the model answers again.
	if _, err := a.AssignBatch("m", matrix.NewDense(1, 3)); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
}

func TestAssignerStats(t *testing.T) {
	sr := NewShardRegistry(3)
	if _, err := sr.Publish("m", seqCentroids(6, 4, 0)); err != nil {
		t.Fatal(err)
	}
	a := NewAssignerOf[float32](sr, serve.BatcherOptions{})
	defer a.Close()
	// The single-node edge's histogram: shard batchers must leave it
	// alone, so a fan-out is timed once, at the fan-out edge.
	singleEdge := telemetry.Default.Histogram("knor_serve_request_seconds", "", nil)
	fanout, single := telRequestSeconds.Count(), singleEdge.Count()
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
	if got := telRequestSeconds.Count() - fanout; got != 1 {
		t.Errorf("knor_shardserve_request_seconds observed %d requests, want 1", got)
	}
	if got := singleEdge.Count() - single; got != 0 {
		t.Errorf("knor_serve_request_seconds observed %d requests from shard batchers, want 0", got)
	}
}
