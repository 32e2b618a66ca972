package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden locks the exposition format: family
// ordering, HELP/TYPE lines, label rendering, cumulative histogram
// buckets, and integral-vs-float value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("test_queue_depth", "Rows queued.")
	g.Set(2.5)
	r.GaugeFunc("test_models", "Registered models.", func() float64 { return 4 })
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5) // +Inf bucket
	v := r.CounterVec("test_by_model_total", "Per-model requests.", "model")
	v.With("b").Add(2)
	v.With("a").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_by_model_total Per-model requests.
# TYPE test_by_model_total counter
test_by_model_total{model="a"} 1
test_by_model_total{model="b"} 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.105
test_latency_seconds_count 4
# HELP test_models Registered models.
# TYPE test_models gauge
test_models 4
# HELP test_queue_depth Rows queued.
# TYPE test_queue_depth gauge
test_queue_depth 2.5
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryGetOrCreate asserts process-wide series semantics: the
// same name returns the same instrument, a conflicting kind panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("goc_total", "")
	b := r.Counter("goc_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Fatalf("shared counter: got %d, want 1", b.Load())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("goc_total", "")
}

// TestRegistryConcurrent hammers registration and observation from many
// goroutines, scraping while new label tuples appear; run under -race
// it proves the lock discipline.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 16
		iters   = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("conc_total", "").Inc()
				r.Gauge("conc_gauge", "").Add(1)
				r.Histogram("conc_seconds", "", DefLatencyBuckets()).Observe(float64(i) * 1e-4)
				r.CounterVec("conc_by_w_total", "", "w").With(string(rune('a' + w%4))).Inc()
				r.GaugeVec("conc_new", "", "i").With(strconv.Itoa(w*iters + i)).Set(1)
				if i%20 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Load(); got != workers*iters {
		t.Fatalf("conc_total = %d, want %d", got, workers*iters)
	}
	var perLabel uint64
	for _, l := range []string{"a", "b", "c", "d"} {
		perLabel += r.CounterVec("conc_by_w_total", "", "w").With(l).Load()
	}
	if perLabel != workers*iters {
		t.Fatalf("labeled sum = %d, want %d", perLabel, workers*iters)
	}
	if got := r.Histogram("conc_seconds", "", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive edge semantics:
// an observation exactly on a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{1, 2, 4} {
		h.Observe(v)
	}
	h.Observe(0)                 // below first bound -> first bucket
	h.Observe(4.000001)          // just past the last bound -> +Inf
	h.Observe(math.Inf(1))       // +Inf observation -> +Inf bucket
	want := []uint64{2, 1, 1, 2} // buckets le=1, le=2, le=4, +Inf
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
}

// TestHistogramQuantile reads quantiles off snapshots of live
// histograms, the path /v1/cluster/stats takes.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if !math.IsNaN(snapshotHist(h, nil).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the first bucket
	}
	if q := snapshotHist(h, nil).Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %v, want within (0, 1]", q)
	}
	h2 := NewHistogram([]float64{1})
	h2.Observe(100) // lands in +Inf: quantile clamps to the last bound
	if q := snapshotHist(h2, nil).Quantile(0.99); q != 1 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 1", q)
	}
}

// TestDefLatencyBucketsResolveMicroseconds pins the low end of the
// serving latency buckets: 300 in-process requests spread over 4–12 µs
// read a p50 in the bucket that holds their exact nearest-rank p50,
// not the midpoint of one wide first bucket.
func TestDefLatencyBucketsResolveMicroseconds(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets())
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 4e-6 + 8e-6*float64(i)/float64(len(vals)-1)
		h.Observe(vals[i])
	}
	exact := vals[int(math.Ceil(0.5*float64(len(vals))))-1] // ascending
	bucket := func(v float64) int {
		i := 0
		for i < len(h.Bounds()) && v > h.Bounds()[i] {
			i++
		}
		return i
	}
	got := snapshotHist(h, nil).Quantile(0.5)
	if bucket(got) != bucket(exact) || got >= 12e-6 {
		t.Fatalf("p50 = %.3gs (bucket %d), exact p50 = %.3gs (bucket %d); want the same bucket, below 12µs",
			got, bucket(got), exact, bucket(exact))
	}
}

// TestSetEnabledGatesHistograms proves the disabled mode: histogram
// observations and trace sampling stop, counters keep counting (their
// cost predates this package, so disabled ~= the old baseline).
func TestSetEnabledGatesHistograms(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	if h.Count() != 0 {
		t.Fatal("disabled telemetry still recorded a histogram observation")
	}
	tr := NewTracer(1, 4)
	if tr.Sample() != nil {
		t.Fatal("disabled telemetry still sampled a trace")
	}
	var c Counter
	c.Inc()
	if c.Load() != 1 {
		t.Fatal("counters must keep counting while disabled")
	}
}
