package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// shapesRegistry holds every instrument shape the exposition has: a
// counter; gauges at the values whose formatting differs (NaN, the
// infinities, -0, the integral cut-off at 1e15, a small float); a
// callback gauge; a histogram with and one without observations; a
// 2-label histogram family; a counter family past the label-set cap,
// with escaped label values and an _overflow series; a gauge family
// with no children; a help text with a backslash and a newline, and a
// family with no help.
func shapesRegistry() *Registry {
	r := NewRegistry()
	r.SetMaxLabelSets(2)
	r.Counter("shapes_requests_total", "Requests served.").Add(3)
	for _, g := range []struct {
		name string
		v    float64
	}{
		{"shapes_gauge_nan", math.NaN()},
		{"shapes_gauge_pos_inf", math.Inf(1)},
		{"shapes_gauge_neg_inf", math.Inf(-1)},
		{"shapes_gauge_neg_zero", math.Copysign(0, -1)},
		{"shapes_gauge_1e15", 1e15},
		{"shapes_gauge_below_1e15", 999999999999999},
		{"shapes_gauge_small", 1.5e-7},
	} {
		r.Gauge(g.name, "A gauge.").Set(g.v)
	}
	r.GaugeFunc("shapes_models", "Registered models.", func() float64 { return 4 })
	h := r.Histogram("shapes_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 5} {
		h.Observe(v)
	}
	r.Histogram("shapes_idle_seconds", "A histogram never observed.", []float64{1, 2})
	hv := r.HistogramVec("shapes_shard_seconds", "Per-shard latency.", []float64{0.5, 1}, "shard", "machine")
	hv.With("1", "b").Observe(0.75)
	hv.With("1", "b").Observe(3)
	hv.With("0", "a").Observe(0.25)
	cv := r.CounterVec("shapes_by_model_total", "Per-model requests.", "model")
	cv.With("q\"uo\\te\nd").Add(2)
	cv.With("b").Inc()
	cv.With("c").Inc() // past the cap of 2: counts in the _overflow series
	r.GaugeVec("shapes_inflight_requests", "A labeled gauge with no children.", "model")
	r.Counter("shapes_escaped_help_total", "Help with a backslash \\ and a\nnewline.").Inc()
	r.Counter("shapes_no_help_total", "").Add(5)
	return r
}

// shapesRanks is a 3-rank federation of shapesRegistry, out of rank
// order: rank 1 adds a family no other rank has and registers
// shapes_models with another kind (dropped: the lowest rank's kind
// wins); rank 2 is stale.
func shapesRanks() []RankSnapshot {
	r1 := NewRegistry()
	r1.Counter("shapes_requests_total", "Requests served.").Add(9)
	r1.Histogram("shapes_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}).Observe(0.2)
	r1.Counter("shapes_models", "Registered models.").Add(7)
	r1.Gauge("shapes_worker_only", "A family on rank 1 only.").Set(1)
	return []RankSnapshot{
		{Rank: 1, Families: r1.Snapshot()},
		{Rank: 2, Stale: true},
		{Rank: 0, Families: shapesRegistry().Snapshot()},
	}
}

const shapesMetricsGolden = `# HELP knor_telemetry_dropped_labels_total Label tuples collapsed into _overflow series by the per-family cardinality cap.
# TYPE knor_telemetry_dropped_labels_total counter
knor_telemetry_dropped_labels_total 1
# HELP shapes_by_model_total Per-model requests.
# TYPE shapes_by_model_total counter
shapes_by_model_total{model="_overflow"} 1
shapes_by_model_total{model="b"} 1
shapes_by_model_total{model="q\"uo\\te\nd"} 2
# HELP shapes_escaped_help_total Help with a backslash \\ and a\nnewline.
# TYPE shapes_escaped_help_total counter
shapes_escaped_help_total 1
# HELP shapes_gauge_1e15 A gauge.
# TYPE shapes_gauge_1e15 gauge
shapes_gauge_1e15 1e+15
# HELP shapes_gauge_below_1e15 A gauge.
# TYPE shapes_gauge_below_1e15 gauge
shapes_gauge_below_1e15 999999999999999
# HELP shapes_gauge_nan A gauge.
# TYPE shapes_gauge_nan gauge
shapes_gauge_nan NaN
# HELP shapes_gauge_neg_inf A gauge.
# TYPE shapes_gauge_neg_inf gauge
shapes_gauge_neg_inf -Inf
# HELP shapes_gauge_neg_zero A gauge.
# TYPE shapes_gauge_neg_zero gauge
shapes_gauge_neg_zero 0
# HELP shapes_gauge_pos_inf A gauge.
# TYPE shapes_gauge_pos_inf gauge
shapes_gauge_pos_inf +Inf
# HELP shapes_gauge_small A gauge.
# TYPE shapes_gauge_small gauge
shapes_gauge_small 1.5e-07
# HELP shapes_idle_seconds A histogram never observed.
# TYPE shapes_idle_seconds histogram
shapes_idle_seconds_bucket{le="1"} 0
shapes_idle_seconds_bucket{le="2"} 0
shapes_idle_seconds_bucket{le="+Inf"} 0
shapes_idle_seconds_sum 0
shapes_idle_seconds_count 0
# HELP shapes_inflight_requests A labeled gauge with no children.
# TYPE shapes_inflight_requests gauge
# HELP shapes_latency_seconds Request latency.
# TYPE shapes_latency_seconds histogram
shapes_latency_seconds_bucket{le="0.01"} 1
shapes_latency_seconds_bucket{le="0.1"} 3
shapes_latency_seconds_bucket{le="1"} 3
shapes_latency_seconds_bucket{le="+Inf"} 4
shapes_latency_seconds_sum 5.105
shapes_latency_seconds_count 4
# HELP shapes_models Registered models.
# TYPE shapes_models gauge
shapes_models 4
# TYPE shapes_no_help_total counter
shapes_no_help_total 5
# HELP shapes_requests_total Requests served.
# TYPE shapes_requests_total counter
shapes_requests_total 3
# HELP shapes_shard_seconds Per-shard latency.
# TYPE shapes_shard_seconds histogram
shapes_shard_seconds_bucket{shard="0",machine="a",le="0.5"} 1
shapes_shard_seconds_bucket{shard="0",machine="a",le="1"} 1
shapes_shard_seconds_bucket{shard="0",machine="a",le="+Inf"} 1
shapes_shard_seconds_sum{shard="0",machine="a"} 0.25
shapes_shard_seconds_count{shard="0",machine="a"} 1
shapes_shard_seconds_bucket{shard="1",machine="b",le="0.5"} 0
shapes_shard_seconds_bucket{shard="1",machine="b",le="1"} 1
shapes_shard_seconds_bucket{shard="1",machine="b",le="+Inf"} 2
shapes_shard_seconds_sum{shard="1",machine="b"} 3.75
shapes_shard_seconds_count{shard="1",machine="b"} 2
`

const shapesClusterGolden = `# HELP knor_federation_stale 1 when this rank's metrics could not be pulled (dead or timed-out worker).
# TYPE knor_federation_stale gauge
knor_federation_stale{rank="0"} 0
knor_federation_stale{rank="1"} 0
knor_federation_stale{rank="2"} 1
# HELP knor_telemetry_dropped_labels_total Label tuples collapsed into _overflow series by the per-family cardinality cap.
# TYPE knor_telemetry_dropped_labels_total counter
knor_telemetry_dropped_labels_total{rank="0"} 1
# HELP shapes_by_model_total Per-model requests.
# TYPE shapes_by_model_total counter
shapes_by_model_total{rank="0",model="_overflow"} 1
shapes_by_model_total{rank="0",model="b"} 1
shapes_by_model_total{rank="0",model="q\"uo\\te\nd"} 2
# HELP shapes_escaped_help_total Help with a backslash \\ and a\nnewline.
# TYPE shapes_escaped_help_total counter
shapes_escaped_help_total{rank="0"} 1
# HELP shapes_gauge_1e15 A gauge.
# TYPE shapes_gauge_1e15 gauge
shapes_gauge_1e15{rank="0"} 1e+15
# HELP shapes_gauge_below_1e15 A gauge.
# TYPE shapes_gauge_below_1e15 gauge
shapes_gauge_below_1e15{rank="0"} 999999999999999
# HELP shapes_gauge_nan A gauge.
# TYPE shapes_gauge_nan gauge
shapes_gauge_nan{rank="0"} NaN
# HELP shapes_gauge_neg_inf A gauge.
# TYPE shapes_gauge_neg_inf gauge
shapes_gauge_neg_inf{rank="0"} -Inf
# HELP shapes_gauge_neg_zero A gauge.
# TYPE shapes_gauge_neg_zero gauge
shapes_gauge_neg_zero{rank="0"} 0
# HELP shapes_gauge_pos_inf A gauge.
# TYPE shapes_gauge_pos_inf gauge
shapes_gauge_pos_inf{rank="0"} +Inf
# HELP shapes_gauge_small A gauge.
# TYPE shapes_gauge_small gauge
shapes_gauge_small{rank="0"} 1.5e-07
# HELP shapes_idle_seconds A histogram never observed.
# TYPE shapes_idle_seconds histogram
shapes_idle_seconds_bucket{rank="0",le="1"} 0
shapes_idle_seconds_bucket{rank="0",le="2"} 0
shapes_idle_seconds_bucket{rank="0",le="+Inf"} 0
shapes_idle_seconds_sum{rank="0"} 0
shapes_idle_seconds_count{rank="0"} 0
# HELP shapes_inflight_requests A labeled gauge with no children.
# TYPE shapes_inflight_requests gauge
# HELP shapes_latency_seconds Request latency.
# TYPE shapes_latency_seconds histogram
shapes_latency_seconds_bucket{rank="0",le="0.01"} 1
shapes_latency_seconds_bucket{rank="0",le="0.1"} 3
shapes_latency_seconds_bucket{rank="0",le="1"} 3
shapes_latency_seconds_bucket{rank="0",le="+Inf"} 4
shapes_latency_seconds_sum{rank="0"} 5.105
shapes_latency_seconds_count{rank="0"} 4
shapes_latency_seconds_bucket{rank="1",le="0.01"} 0
shapes_latency_seconds_bucket{rank="1",le="0.1"} 0
shapes_latency_seconds_bucket{rank="1",le="1"} 1
shapes_latency_seconds_bucket{rank="1",le="+Inf"} 1
shapes_latency_seconds_sum{rank="1"} 0.2
shapes_latency_seconds_count{rank="1"} 1
# HELP shapes_models Registered models.
# TYPE shapes_models gauge
shapes_models{rank="0"} 4
# TYPE shapes_no_help_total counter
shapes_no_help_total{rank="0"} 5
# HELP shapes_requests_total Requests served.
# TYPE shapes_requests_total counter
shapes_requests_total{rank="0"} 3
shapes_requests_total{rank="1"} 9
# HELP shapes_shard_seconds Per-shard latency.
# TYPE shapes_shard_seconds histogram
shapes_shard_seconds_bucket{rank="0",shard="0",machine="a",le="0.5"} 1
shapes_shard_seconds_bucket{rank="0",shard="0",machine="a",le="1"} 1
shapes_shard_seconds_bucket{rank="0",shard="0",machine="a",le="+Inf"} 1
shapes_shard_seconds_sum{rank="0",shard="0",machine="a"} 0.25
shapes_shard_seconds_count{rank="0",shard="0",machine="a"} 1
shapes_shard_seconds_bucket{rank="0",shard="1",machine="b",le="0.5"} 0
shapes_shard_seconds_bucket{rank="0",shard="1",machine="b",le="1"} 1
shapes_shard_seconds_bucket{rank="0",shard="1",machine="b",le="+Inf"} 2
shapes_shard_seconds_sum{rank="0",shard="1",machine="b"} 3.75
shapes_shard_seconds_count{rank="0",shard="1",machine="b"} 2
# HELP shapes_worker_only A family on rank 1 only.
# TYPE shapes_worker_only gauge
shapes_worker_only{rank="1"} 1
`

// TestExpositionGolden pins both pages of a registry holding every
// instrument shape, byte for byte, and runs the strict checker on
// them.
func TestExpositionGolden(t *testing.T) {
	for _, page := range []struct {
		name, want string
		write      func(*strings.Builder) error
	}{
		{"metrics", shapesMetricsGolden, func(b *strings.Builder) error { return shapesRegistry().WritePrometheus(b) }},
		{"cluster", shapesClusterGolden, func(b *strings.Builder) error { return WriteFederatedPrometheus(b, shapesRanks()) }},
	} {
		t.Run(page.name, func(t *testing.T) {
			var b strings.Builder
			if err := page.write(&b); err != nil {
				t.Fatal(err)
			}
			got := b.String()
			gl, wl := strings.Split(got, "\n"), strings.Split(page.want, "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
				}
			}
			if _, err := checkExposition(got); err != nil {
				t.Errorf("strict checker rejects the page: %v", err)
			}
		})
	}
}

// TestLabelEscaping: a model name holding a tab, a control byte, a
// zero-width space and invalid UTF-8 renders on both pages unquoted
// except for the format's three escapes, the strict checker accepts
// both pages, and the label value decodes back to the name (its
// invalid byte as U+FFFD).
func TestLabelEscaping(t *testing.T) {
	const model = "zz\tq\x01\u200b\"\\\n\xff"
	r := NewRegistry()
	r.GaugeVec("esc_inflight_requests", "In-flight requests.", "model").With(model).Inc()
	var metrics, cluster strings.Builder
	if err := r.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := WriteFederatedPrometheus(&cluster, []RankSnapshot{{Rank: 0, Families: r.Snapshot()}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ page, line string }{
		{metrics.String(), "esc_inflight_requests{model=\"zz\tq\x01\u200b\\\"\\\\\\n\uFFFD\"} 1"},
		{cluster.String(), "esc_inflight_requests{rank=\"0\",model=\"zz\tq\x01\u200b\\\"\\\\\\n\uFFFD\"} 1"},
	} {
		if !strings.Contains(c.page, c.line+"\n") {
			t.Errorf("page lacks %q:\n%s", c.line, c.page)
		}
		p, err := checkExposition(c.page)
		if err != nil {
			t.Fatalf("strict checker rejects the page: %v\n%s", err, c.page)
		}
		want := strings.ToValidUTF8(model, "\uFFFD")
		if got := p.label("esc_inflight_requests", "model"); got != want {
			t.Errorf("label decodes to %q, want %q", got, want)
		}
	}
}

// TestCheckExpositionRejects shows the strict checker failing the page
// faults it exists to catch, each in an otherwise valid page.
func TestCheckExpositionRejects(t *testing.T) {
	const head = "# HELP h_seconds Latency.\n# TYPE h_seconds histogram\n"
	for _, c := range []struct{ name, page string }{
		{"suffix after the label set", head + "h_seconds_bucket{s=\"0\",le=\"+Inf\"} 1\nh_seconds{s=\"0\"}_sum 3\n"},
		{"go escape in a label value", "# TYPE g gauge\ng{m=\"zz\\tq\"} 0\n"},
		{"hex escape in a label value", "# TYPE g gauge\ng{m=\"\\x01\"} 0\n"},
		{"unicode escape in a label value", "# TYPE g gauge\ng{m=\"\\u200b\"} 0\n"},
		{"escape in help", "# HELP g A \\t tab.\n# TYPE g gauge\ng 0\n"},
		{"invalid UTF-8", "# TYPE g gauge\ng{m=\"\xff\"} 0\n"},
		{"no value", "# TYPE g gauge\ng{m=\"a\"}\n"},
		{"bad value", "# TYPE g gauge\ng 0x1p3\n"},
		{"bucket without le", head + "h_seconds_bucket{s=\"0\"} 1\n"},
		{"le off a bucket", head + "h_seconds_sum{le=\"1\"} 1\n"},
		{"histogram suffix under a counter", "# TYPE c_total counter\nc_total_sum 1\n"},
		{"unsuffixed histogram sample", head + "h_seconds 1\n"},
		{"sample with no TYPE", "g 1\n"},
		{"families interleaved", "# TYPE a gauge\n# TYPE b gauge\na 1\n"},
		{"TYPE twice", "# TYPE g gauge\ng 1\n# TYPE g gauge\n"},
		{"duplicate series", "# TYPE g gauge\ng{m=\"a\"} 1\ng{m=\"a\"} 2\n"},
		{"duplicate label", "# TYPE g gauge\ng{m=\"a\",m=\"b\"} 1\n"},
		{"bad metric name", "# TYPE 0g gauge\n0g 1\n"},
		{"bad label name", "# TYPE g gauge\ng{m-x=\"a\"} 1\n"},
		{"unknown kind", "# TYPE g meter\ng 1\n"},
		{"no final newline", "# TYPE g gauge\ng 1"},
	} {
		if _, err := checkExposition(c.page); err == nil {
			t.Errorf("%s: checker accepts %q", c.name, c.page)
		}
	}
}

// FuzzExposition sends label values, a help text and a sample value
// through both writers: the strict checker accepts every page, and the
// label values and help text decode back to their inputs (invalid
// UTF-8 as U+FFFD).
func FuzzExposition(f *testing.F) {
	f.Add("zz\tq", "0", "Requests.", 1.5)
	f.Add("\x01\u200b", "\xff\xfe", "back\\slash\nnewline", math.NaN())
	f.Add("q\"uo\\te\nd", "", "", math.Inf(-1))
	f.Add("\xed\xa0\x80", "{rank=\"1\"}", "# TYPE x gauge", 1e300)
	f.Add(OverflowLabel, " le=\"1\" ", "\r\t\x00", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, model, shard, help string, v float64) {
		r := NewRegistry()
		r.GaugeVec("fuzz_inflight_requests", help, "model").With(model).Set(v)
		r.HistogramVec("fuzz_shard_seconds", help, []float64{0.5, 1}, "shard", "model").With(shard, model).Observe(v)
		r.Counter("fuzz_requests_total", help).Inc()
		var metrics, cluster strings.Builder
		if err := r.WritePrometheus(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := WriteFederatedPrometheus(&cluster, []RankSnapshot{
			{Rank: 0, Families: r.Snapshot()}, {Rank: 1, Stale: true},
		}); err != nil {
			t.Fatal(err)
		}
		wantModel := strings.ToValidUTF8(model, "\uFFFD")
		wantShard := strings.ToValidUTF8(shard, "\uFFFD")
		wantHelp := strings.ToValidUTF8(help, "\uFFFD")
		for _, page := range []string{metrics.String(), cluster.String()} {
			p, err := checkExposition(page)
			if err != nil {
				t.Fatalf("strict checker rejects the page: %v\n%s", err, page)
			}
			for _, s := range p.samples {
				if !strings.HasPrefix(s.name, "fuzz_inflight_requests") && !strings.HasPrefix(s.name, "fuzz_shard_seconds") {
					continue
				}
				if got := s.get("model"); got != wantModel {
					t.Fatalf("%s: model decodes to %q, want %q", s.name, got, wantModel)
				}
				if s.name != "fuzz_inflight_requests" && s.get("shard") != wantShard {
					t.Fatalf("%s: shard decodes to %q, want %q", s.name, s.get("shard"), wantShard)
				}
			}
			if help != "" {
				for _, fam := range []string{"fuzz_inflight_requests", "fuzz_shard_seconds", "fuzz_requests_total"} {
					if p.help[fam] != wantHelp {
						t.Fatalf("%s help decodes to %q, want %q", fam, p.help[fam], wantHelp)
					}
				}
			}
			if got := p.value("fuzz_inflight_requests"); got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Fatalf("gauge reads %v, want %v", got, v)
			}
		}
	})
}

// BenchmarkWritePrometheus scrapes a registry shaped like a 2-machine
// knorserve's /metrics: 57 families (39 counters, 7 gauges, 11
// histograms), a per-shard histogram family, and labeled HTTP, kernel,
// transport and in-flight families.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 35; i++ {
		r.Counter(fmt.Sprintf("bench_layer%02d_events_total", i), "Events counted by one layer.").Add(uint64(1000*i + 7))
	}
	http := r.CounterVec("bench_http_requests_total", "HTTP requests by path and code.", "path", "code")
	for _, p := range []string{"/v1/models", "/v1/assign", "/metrics", "/healthz"} {
		http.With(p, "200").Inc()
	}
	kernels := r.CounterVec("bench_gemm_dispatch_total", "GEMM calls by kernel.", "kernel")
	for _, k := range []string{"asm64", "go64", "asm32", "go32"} {
		kernels.With(k).Add(3)
	}
	net := r.CounterVec("bench_net_bytes_total", "Transport bytes by direction.", "dir")
	net.With("in").Add(4096)
	net.With("out").Add(8192)
	r.CounterVec("bench_failovers_total", "Failovers by shard.", "shard").With("0").Inc()
	for i := 0; i < 5; i++ {
		r.Gauge(fmt.Sprintf("bench_layer%02d_depth", i), "A queue depth.").Set(float64(i) + 0.5)
	}
	r.GaugeFunc("bench_models", "Registered models.", func() float64 { return 1 })
	inflight := r.GaugeVec("bench_inflight_requests", "In-flight requests by model.", "model")
	inflight.With("d16").Set(0)
	inflight.With("d32").Set(2)
	for i := 0; i < 9; i++ {
		h := r.Histogram(fmt.Sprintf("bench_layer%02d_seconds", i), "A layer's latency.", DefLatencyBuckets())
		for j := 0; j < 50; j++ {
			h.Observe(float64(j) * 1e-5)
		}
	}
	r.Histogram("bench_batch_rows", "Rows per flush.", DefSizeBuckets()).Observe(4)
	shards := r.HistogramVec("bench_shard_seconds", "Per-shard latency.", DefLatencyBuckets(), "shard")
	for s := 0; s < 2; s++ {
		shards.With(strconv.Itoa(s)).Observe(3e-5)
	}
	var page strings.Builder
	b.ReportAllocs()
	for b.Loop() {
		page.Reset()
		if err := r.WritePrometheus(&page); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(page.Len()))
}

// --- the strict checker ---------------------------------------------------

// expoPage is a page the checker accepted: its sample lines in order,
// with their label values decoded, and each family's decoded help.
type expoPage struct {
	samples []expoSample
	help    map[string]string
}

type expoSample struct {
	name   string
	labels [][2]string // name, decoded value, in page order
	value  float64
}

func (s expoSample) get(label string) string {
	for _, l := range s.labels {
		if l[0] == label {
			return l[1]
		}
	}
	return ""
}

// label is the decoded value of label on the first sample named name.
func (p expoPage) label(name, label string) string {
	for _, s := range p.samples {
		if s.name == name {
			return s.get(label)
		}
	}
	return ""
}

// value is the first sample named name's value (NaN if none).
func (p expoPage) value(name string) float64 {
	for _, s := range p.samples {
		if s.name == name {
			return s.value
		}
	}
	return math.NaN()
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*`)
	valueRE      = regexp.MustCompile(`^(NaN|[+-]Inf|[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)$`)
	expoKinds    = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

// checkExposition parses page as Prometheus text exposition (format
// 0.0.4) and rejects what its grammar does not allow. The page is
// UTF-8 and ends in a newline. Metric and label names follow the
// format's grammar. A HELP text holds only the \\ and \n escapes, and
// a label value only \\, \" and \n. Every sample line is a metric
// name, an optional label set, one space and a value, with no
// timestamp, so the label set is the last token before the value. A
// family's TYPE line comes once, before its samples, which follow it
// as one group. _bucket (which must carry le), _sum and _count
// samples appear only under a histogram TYPE, and le only on _bucket.
// No series appears twice.
func checkExposition(page string) (expoPage, error) {
	p := expoPage{help: map[string]string{}}
	if !utf8.ValidString(page) {
		return p, fmt.Errorf("page is not UTF-8")
	}
	if page != "" && !strings.HasSuffix(page, "\n") {
		return p, fmt.Errorf("page does not end in a newline")
	}
	types := map[string]string{}
	seen := map[string]bool{}
	current := "" // the family whose TYPE line came last
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(format string, args ...any) (expoPage, error) {
			return p, fmt.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, text, _ := strings.Cut(line[len("# HELP "):], " ")
			if metricNameRE.FindString(name) != name {
				return fail("bad metric name %q", name)
			}
			if _, dup := p.help[name]; dup {
				return fail("second HELP for %s", name)
			}
			help, err := unescape(text, false)
			if err != nil {
				return fail("%v", err)
			}
			p.help[name] = help
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Split(line[len("# TYPE "):], " ")
			if len(f) != 2 || metricNameRE.FindString(f[0]) != f[0] || !expoKinds[f[1]] {
				return fail("malformed TYPE line")
			}
			if _, dup := types[f[0]]; dup {
				return fail("second TYPE for %s", f[0])
			}
			types[f[0]] = f[1]
			current = f[0]
		case strings.HasPrefix(line, "#"):
		default:
			s, key, err := parseSampleLine(line)
			if err != nil {
				return fail("%v", err)
			}
			family, suffix := s.name, ""
			if _, ok := types[family]; !ok {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if base, ok := strings.CutSuffix(s.name, suf); ok && types[base] != "" {
						family, suffix = base, suf
					}
				}
			}
			kind, ok := types[family]
			switch {
			case !ok:
				return fail("sample has no TYPE line")
			case family != current:
				return fail("sample of %s outside its family's group", family)
			case kind == "histogram" && suffix == "":
				return fail("histogram sample without _bucket, _sum or _count")
			case suffix != "" && kind != "histogram":
				return fail("%s sample under a %s TYPE", suffix, kind)
			case suffix == "_bucket" && !hasLabel(s, "le"):
				return fail("_bucket without le")
			case suffix == "_bucket" && !valueRE.MatchString(s.get("le")):
				return fail("le %q is not a number", s.get("le"))
			case suffix != "_bucket" && hasLabel(s, "le"):
				return fail("le on a sample that is not a bucket")
			case seen[key]:
				return fail("series appears twice")
			}
			seen[key] = true
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

func hasLabel(s expoSample, name string) bool {
	for _, l := range s.labels {
		if l[0] == name {
			return true
		}
	}
	return false
}

// parseSampleLine reads name{label="value",...} value and returns the
// sample and its series key (the line up to the value).
func parseSampleLine(line string) (expoSample, string, error) {
	var s expoSample
	s.name = metricNameRE.FindString(line)
	if s.name == "" {
		return s, "", fmt.Errorf("bad metric name")
	}
	rest := line[len(s.name):]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			name := labelNameRE.FindString(rest)
			if name == "" {
				return s, "", fmt.Errorf("bad label name at %q", rest)
			}
			if hasLabel(s, name) {
				return s, "", fmt.Errorf("label %s twice", name)
			}
			rest = rest[len(name):]
			if !strings.HasPrefix(rest, `="`) {
				return s, "", fmt.Errorf("label %s has no quoted value", name)
			}
			end := closingQuote(rest[2:])
			if end < 0 {
				return s, "", fmt.Errorf("label %s value is not terminated", name)
			}
			val, err := unescape(rest[2:2+end], true)
			if err != nil {
				return s, "", fmt.Errorf("label %s: %v", name, err)
			}
			s.labels = append(s.labels, [2]string{name, val})
			rest = rest[2+end+1:]
			if r, ok := strings.CutPrefix(rest, "}"); ok {
				rest = r
				break
			}
			r, ok := strings.CutPrefix(rest, ",")
			if !ok {
				return s, "", fmt.Errorf("label %s is followed by %q", name, rest)
			}
			rest = r
		}
	}
	key := line[:len(line)-len(rest)]
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return s, "", fmt.Errorf("no space between the series and its value: %q", rest)
	}
	if !valueRE.MatchString(value) {
		return s, "", fmt.Errorf("value %q is not a number", value)
	}
	// valueRE passed it, so ParseFloat fails at most with ErrRange,
	// having returned the infinity the value rounds to.
	s.value, _ = strconv.ParseFloat(value, 64)
	return s, key, nil
}

// closingQuote is the index in s of the first " not escaped by a
// backslash, or -1.
func closingQuote(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// unescape decodes a HELP text, or a label value when label is set: a
// backslash may escape only a backslash, n (a newline) and, in a label
// value, a double quote.
func unescape(s string, label bool) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i+1 == len(s) {
			return "", fmt.Errorf("dangling backslash")
		}
		i++
		switch e := s[i]; {
		case e == '\\':
			b.WriteByte('\\')
		case e == 'n':
			b.WriteByte('\n')
		case e == '"' && label:
			b.WriteByte('"')
		default:
			return "", fmt.Errorf(`escape \%c is not in the format`, e)
		}
	}
	return b.String(), nil
}
