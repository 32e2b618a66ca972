package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestRegistrySnapshot: every instrument kind freezes into plain data
// in deterministic family order with the same values WritePrometheus
// would render.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "a counter").Add(7)
	r.Gauge("a_gauge", "a gauge").Set(2.5)
	r.GaugeFunc("fn_gauge", "callback", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	cv := r.CounterVec("req_total", "requests", "route")
	cv.With("/assign").Add(3)
	cv.With("/metrics").Add(1)

	fams := r.Snapshot()
	byName := map[string]SnapshotFamily{}
	var order []string
	for _, f := range fams {
		byName[f.Name] = f
		order = append(order, f.Name)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("families not sorted: %v", order)
		}
	}
	if f := byName["z_total"]; f.Kind != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 7 {
		t.Fatalf("counter snapshot wrong: %+v", f)
	}
	if f := byName["a_gauge"]; f.Samples[0].Value != 2.5 {
		t.Fatalf("gauge snapshot wrong: %+v", f)
	}
	if f := byName["fn_gauge"]; f.Samples[0].Value != 42 {
		t.Fatalf("gauge-func snapshot wrong: %+v", f)
	}
	hf := byName["lat_seconds"]
	s := hf.Samples[0]
	if s.Count != 3 || s.Sum != 101 || len(s.Bounds) != 2 || len(s.Buckets) != 3 {
		t.Fatalf("histogram snapshot wrong: %+v", s)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("histogram buckets wrong: %v", s.Buckets)
	}
	rf := byName["req_total"]
	if len(rf.Samples) != 2 || rf.Samples[0].Labels[0] != "/assign" || rf.Samples[0].Value != 3 {
		t.Fatalf("labeled counter snapshot wrong: %+v", rf)
	}
	if len(rf.LabelNames) != 1 || rf.LabelNames[0] != "route" {
		t.Fatalf("label names wrong: %v", rf.LabelNames)
	}
}

// TestSnapshotQuantile: the snapshot quantile interpolates linearly
// within the located bucket, clamps +Inf-bucket ranks to the last
// bound, and yields NaN for empty samples.
func TestSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.6, 3, 3.5, 100} {
		h.Observe(v) // buckets: 1, 2, 2, and 1 in +Inf
	}
	s := snapshotHist(h, nil)
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1.25}, {0.5, 2}, {0.75, 3.5}, {0.9, 4}, {0.99, 4},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Fatalf("q=%g: quantile %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN((SnapshotSample{}).Quantile(0.5)) {
		t.Fatal("empty sample quantile should be NaN")
	}
}

// TestWriteFederatedPrometheus: rank labels on every series, HELP/TYPE
// once per family, deterministic ordering, histogram buckets per rank,
// and the stale marker for dead ranks.
func TestWriteFederatedPrometheus(t *testing.T) {
	r0 := NewRegistry()
	r0.Counter("knor_reqs_total", "requests").Add(5)
	r0.Histogram("knor_lat_seconds", "latency", []float64{1}).Observe(0.5)
	r1 := NewRegistry()
	r1.Counter("knor_reqs_total", "requests").Add(9)

	var sb strings.Builder
	err := WriteFederatedPrometheus(&sb, []RankSnapshot{
		{Rank: 1, Families: r1.Snapshot()},
		{Rank: 0, Families: r0.Snapshot()},
		{Rank: 2, Stale: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`knor_reqs_total{rank="0"} 5`,
		`knor_reqs_total{rank="1"} 9`,
		`knor_lat_seconds_bucket{rank="0",le="1"} 1`,
		`knor_lat_seconds_bucket{rank="0",le="+Inf"} 1`,
		`knor_lat_seconds_count{rank="0"} 1`,
		`knor_federation_stale{rank="0"} 0`,
		`knor_federation_stale{rank="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("federated output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE knor_reqs_total counter"); n != 1 {
		t.Fatalf("TYPE line emitted %d times, want once:\n%s", n, out)
	}
	// rank 0 series must come before rank 1 for the same family.
	if strings.Index(out, `knor_reqs_total{rank="0"}`) > strings.Index(out, `knor_reqs_total{rank="1"}`) {
		t.Fatalf("ranks not ordered:\n%s", out)
	}
}

// TestLabelCardinalityCap: past the per-family cap, new tuples collapse
// into one _overflow series, the dropped counter counts them, and
// existing tuples keep resolving to their own children.
func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetMaxLabelSets(3)
	cv := r.CounterVec("caps_total", "capped", "who")
	cv.With("a").Inc()
	cv.With("b").Inc()
	cv.With("c").Inc()
	// Cap hit: d and e collapse.
	cv.With("d").Inc()
	cv.With("e").Add(2)
	// Pre-existing tuples still resolve to their own series.
	cv.With("a").Inc()

	if got := cv.With("a").Load(); got != 2 {
		t.Fatalf("existing series a = %d, want 2", got)
	}
	ov := cv.With(OverflowLabel)
	if got := ov.Load(); got != 3 {
		t.Fatalf("overflow series = %d, want 3 (1 from d + 2 from e)", got)
	}
	dropped := r.Counter("knor_telemetry_dropped_labels_total", "")
	// d, e, and the explicit _overflow lookup above resolve via the
	// overflow path only when the cap blocks a *new* tuple; the explicit
	// lookup found the existing overflow child without dropping.
	if got := dropped.Load(); got != 2 {
		t.Fatalf("dropped counter = %d, want 2", got)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `caps_total{who="_overflow"} 3`) {
		t.Fatalf("exposition missing overflow series:\n%s", out)
	}
	if strings.Contains(out, `who="d"`) || strings.Contains(out, `who="e"`) {
		t.Fatalf("capped tuples leaked into exposition:\n%s", out)
	}

	// Unlimited registries never drop.
	r2 := NewRegistry()
	r2.SetMaxLabelSets(0)
	cv2 := r2.CounterVec("free_total", "uncapped", "i")
	for i := 0; i < 2000; i++ {
		cv2.With(string(rune('a'+i%26)) + string(rune('0'+i%10))).Inc()
	}
	if got := r2.Counter("knor_telemetry_dropped_labels_total", "").Load(); got != 0 {
		t.Fatalf("uncapped registry dropped %d", got)
	}
}

// TestDefaultCapIsBounded: the default registry ships with a finite
// cap, so a label derived from hostile input cannot OOM the process.
func TestDefaultCapIsBounded(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hostile_total", "hostile", "q")
	for i := 0; i < DefaultMaxLabelSets*2; i++ {
		cv.With(strings.Repeat("x", 1+i%7) + string(rune('a'+i%26)) + string(rune('A'+(i/26)%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)) + string(rune('0'+(i/1000)%10))).Inc()
	}
	r.mu.Lock()
	in := r.insts["hostile_total"]
	r.mu.Unlock()
	in.mu.Lock()
	n := len(in.children)
	in.mu.Unlock()
	if n > DefaultMaxLabelSets+1 {
		t.Fatalf("children grew to %d, cap is %d", n, DefaultMaxLabelSets)
	}
}
