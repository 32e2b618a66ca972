package main

// End-to-end tests of the observability surface: the Prometheus
// exposition, readiness vs liveness, sampled request traces, and the
// request-ID middleware. Instrument values are process-global and
// accumulate across tests, so assertions check presence and shape, not
// exact counts.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"knor/internal/matrix"
	"knor/internal/telemetry"
)

const createBody = `{"name":"obs","k":2,"rows":[[0,0],[0,1],[9,0],[9,1]]}`

// TestMetricsExposition drives traffic through /assign, on a single
// node and on a 2-machine sharded server, and asserts the exposition
// spans every instrumented layer with at least 25 distinct series
// families, that every sample line of /metrics and /metrics/cluster is
// a series and a value (a label set, when present, is the last token
// before the value), and that a model name holding a tab and a control
// byte is written raw in its label value.
func TestMetricsExposition(t *testing.T) {
	for _, opts := range []serverOptions{{}, {machines: 2}} {
		t.Run(fmt.Sprintf("machines=%d", max(opts.machines, 1)), func(t *testing.T) {
			_, ts := newTestServer(t, opts)
			for _, model := range []string{"obs", "obs\t\x01"} {
				name, _ := json.Marshal(model)
				create := fmt.Sprintf(`{"name":%s,"k":2,"rows":[[0,0],[0,1],[9,0],[9,1]]}`, name)
				if code, body := postJSON(t, ts.URL+"/v1/models", create); code != http.StatusCreated {
					t.Fatalf("create %q: %d %v", model, code, body)
				}
				for i := 0; i < 3; i++ {
					assign := fmt.Sprintf(`{"model":%s,"rows":[[1,1],[8,1]]}`, name)
					if code, _ := postJSON(t, ts.URL+"/v1/assign", assign); code != http.StatusOK {
						t.Fatalf("assign %q: %d", model, code)
					}
				}
			}
			edge := "knor_serve"
			if opts.machines > 1 {
				edge = "knor_shardserve"
			}
			text := getMetrics(t, ts.URL+"/metrics")
			cluster := getMetrics(t, ts.URL+"/metrics/cluster")
			for page, text := range map[string]string{"/metrics": text, "/metrics/cluster": cluster} {
				for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
					if line == "" || line[0] == '#' {
						continue
					}
					cut := strings.LastIndexByte(line, ' ')
					if cut < 0 {
						t.Fatalf("%s: sample line without a value: %q", page, line)
					}
					if series := line[:cut]; strings.Contains(series, "{") && !strings.HasSuffix(series, "}") {
						t.Errorf("%s: label set is not the last token before the value: %q", page, line)
					}
					if _, err := strconv.ParseFloat(line[cut+1:], 64); err != nil {
						t.Errorf("%s: value of %q: %v", page, line, err)
					}
				}
			}

			families := map[string]string{}
			for _, line := range strings.Split(text, "\n") {
				if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
					parts := strings.Fields(f)
					if len(parts) != 2 {
						t.Fatalf("malformed TYPE line: %q", line)
					}
					families[parts[0]] = parts[1]
				}
			}
			if len(families) < 25 {
				t.Fatalf("only %d series families on /metrics, want >= 25:\n%v", len(families), families)
			}
			// One representative series per layer must be present.
			for _, name := range []string{
				"knor_serve_requests_total",      // serve batcher edge
				"knor_serve_gemm_seconds",        // serve flush path
				"knor_shardserve_requests_total", // fan-out edge
				"knor_store_page_hits_total",     // I/O stack
				"knor_sem_iterations_total",      // SEM engine
				"knor_registry_publishes_total",  // registry
				"knor_http_requests_total",       // HTTP middleware
			} {
				if _, ok := families[name]; !ok {
					t.Errorf("family %s missing from /metrics", name)
				}
			}
			// The served traffic must be visible: requests counted, latency
			// histogram populated with cumulative buckets, and on the
			// sharded server each shard's latency with its sum and count.
			for _, want := range []string{
				edge + "_request_seconds_bucket{le=\"+Inf\"}",
				`knor_http_requests_total{path="/v1/assign",code="200"}`,
				edge + "_inflight_requests{model=\"obs\t\x01\"} 0",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics lacks %q", want)
				}
			}
			if want := edge + "_inflight_requests{rank=\"0\",model=\"obs\t\x01\"} 0"; !strings.Contains(cluster, want) {
				t.Errorf("/metrics/cluster lacks %q", want)
			}
			if opts.machines > 1 {
				for _, want := range []string{`knor_shardserve_shard_seconds_sum{shard="0"} `, `knor_shardserve_shard_seconds_count{shard="1"} `} {
					if !strings.Contains(text, want) {
						t.Errorf("/metrics lacks %q", want)
					}
				}
			}
		})
	}
}

// TestUnknownModelAddsNoSeries: an assign to a model that does not
// exist, with rows or without, answers 400 with the unknown-model
// error and leaves no series on /metrics or /metrics/cluster, even for
// more names than a family holds label sets, so no series is dropped
// into _overflow.
func TestUnknownModelAddsNoSeries(t *testing.T) {
	for _, opts := range []serverOptions{{}, {machines: 2}} {
		t.Run(fmt.Sprintf("machines=%d", max(opts.machines, 1)), func(t *testing.T) {
			s, ts := newTestServer(t, opts)
			before := droppedLabels(t, ts.URL)
			pkg := "serve"
			if opts.machines > 1 {
				pkg = "shardserve"
			}
			for _, rows := range []string{"[[1,2]]", "[]"} {
				code, body := postJSON(t, ts.URL+"/v1/assign", `{"model":"ghost\tq","rows":`+rows+`}`)
				if want := fmt.Sprintf("%s: unknown model %q", pkg, "ghost\tq"); code != http.StatusBadRequest || body["error"] != want {
					t.Errorf("assign of %s to an unknown model: %d %v, want 400 %q", rows, code, body, want)
				}
			}
			rows := matrix.NewDense(1, 2)
			for i := 0; i <= telemetry.DefaultMaxLabelSets; i++ {
				if _, err := s.batcher.AssignRows(fmt.Sprintf("ghost-%d", i), rows); err == nil {
					t.Fatalf("model ghost-%d accepted", i)
				}
			}
			for _, page := range []string{"/metrics", "/metrics/cluster"} {
				if text := getMetrics(t, ts.URL+page); strings.Contains(text, "ghost") {
					t.Errorf("%s holds a series of an unknown model", page)
				}
			}
			if got := droppedLabels(t, ts.URL) - before; got != 0 {
				t.Errorf("knor_telemetry_dropped_labels_total rose by %v", got)
			}
		})
	}
}

// getMetrics fetches a metrics page.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// droppedLabels reads knor_telemetry_dropped_labels_total off /metrics
// (0 while no label set has been dropped and the counter is not yet
// registered).
func droppedLabels(t *testing.T, base string) float64 {
	t.Helper()
	for _, line := range strings.Split(getMetrics(t, base+"/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, "knor_telemetry_dropped_labels_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("dropped labels: %v", err)
			}
			return n
		}
	}
	return 0
}

// TestReadyzLifecycle pins the liveness/readiness split: /healthz is
// always 200 while the process serves; /readyz turns 503 with no
// models, 200 once one is published, and 503 again while draining.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz with no models: %d, want 200 (liveness is not readiness)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models: %d, want 503", got)
	}
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with a model: %d, want 200", got)
	}
	s.draining.Store(true)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", got)
	}
}

// TestReadyzStateDir: an unwritable state directory turns readiness off
// (snapshots would silently fail while the server looked healthy).
func TestReadyzStateDir(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverOptions{stateDir: dir})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with writable state dir: %d", resp.StatusCode)
	}
}

// TestTraceSampling samples every /assign request and asserts the dump
// shows the full pipeline: enqueue -> coalesce -> gemm -> reply.
func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 4; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("assign: %d", code)
		}
	}
	var dump struct {
		SampleEvery int `json:"sample_every"`
		Traces      []struct {
			ID      uint64  `json:"id"`
			TotalUS float64 `json:"total_us"`
			Stages  []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if dump.SampleEvery != 1 || len(dump.Traces) == 0 {
		t.Fatalf("traces dump: every=%d n=%d", dump.SampleEvery, len(dump.Traces))
	}
	tr := dump.Traces[0]
	if tr.TotalUS <= 0 {
		t.Errorf("trace total_us = %v, want > 0", tr.TotalUS)
	}
	stages := map[string]bool{}
	for _, s := range tr.Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"enqueue", "coalesce", "gemm", "reply"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}
}

// TestShardedTraceSampling runs the same check through the fan-out
// path: shard spans and the argmin fold's min_allreduce span must
// appear.
func TestShardedTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 4; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("assign: %d", code)
		}
	}
	var dump struct {
		Traces []struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no sampled traces through the sharded path")
	}
	stages := map[string]bool{}
	for _, s := range dump.Traces[0].Stages {
		stages[s.Name] = true
	}
	for _, want := range []string{"enqueue", "coalesce", "gemm", "shard_0", "shard_1", "min_allreduce", "reply"} {
		if !stages[want] {
			t.Errorf("sharded trace missing stage %q (have %v)", want, stages)
		}
	}
}

// TestRequestIDMiddleware: every response carries an X-Request-ID, and
// a caller-provided ID is echoed back.
func TestRequestIDMiddleware(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID assigned")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("X-Request-ID = %q, want echo of caller value", got)
	}
}

// TestStatsObservabilityFields: /v1/stats carries the new p95, per-model
// in-flight map, and snapshot persistence counters.
func TestStatsObservabilityFields(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverOptions{stateDir: dir})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	var stats map[string]json.RawMessage
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	for _, key := range []string{"p95_ms", "inflight", "snapshot_saves", "snapshot_loads"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q: %v", key, stats)
		}
	}
	var inflight map[string]int
	if err := json.Unmarshal(stats["inflight"], &inflight); err != nil {
		t.Fatalf("inflight not a map: %s", stats["inflight"])
	}
}

// edgeQuantiles is the latency part of a /v1/stats body or of one
// /v1/cluster/stats rank.
type edgeQuantiles struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// TestStatsQuantilesMatchClusterStats: /v1/stats and /v1/cluster/stats
// rank 0 read their latency quantiles from one source, the edge
// histogram, so after the same requests they report the same numbers,
// on a single node and on a sharded server.
func TestStatsQuantilesMatchClusterStats(t *testing.T) {
	for _, machines := range []int{1, 3} {
		t.Run(fmt.Sprintf("machines=%d", machines), func(t *testing.T) {
			_, ts := newTestServer(t, serverOptions{machines: machines})
			if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
				t.Fatalf("create: %d %v", code, body)
			}
			for i := 0; i < 20; i++ {
				if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
					t.Fatal("assign failed")
				}
			}
			var local edgeQuantiles
			if code := getJSON(t, ts.URL+"/v1/stats", &local); code != http.StatusOK {
				t.Fatalf("stats: %d", code)
			}
			var cluster struct {
				Ranks []edgeQuantiles `json:"ranks"`
			}
			if code := getJSON(t, ts.URL+"/v1/cluster/stats", &cluster); code != http.StatusOK {
				t.Fatalf("cluster/stats: %d", code)
			}
			if len(cluster.Ranks) == 0 {
				t.Fatal("cluster/stats reports no ranks")
			}
			if local != cluster.Ranks[0] {
				t.Errorf("/v1/stats quantiles %+v, /v1/cluster/stats rank 0 %+v: want identical", local, cluster.Ranks[0])
			}
			if local.P50MS <= 0 || local.P99MS < local.P50MS {
				t.Errorf("latency quantiles not populated/ordered: %+v", local)
			}
		})
	}
}

// TestStatsUnderTelemetryDisabled: with histograms switched off,
// /v1/assign still answers, the edge histogram does not move, and
// /v1/stats still encodes, its latency fields frozen.
func TestStatsUnderTelemetryDisabled(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	readStats := func() map[string]any {
		var stats map[string]any
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: %d %v", code, stats)
		}
		return stats
	}
	before := readStats()
	edge := telemetry.Default.Histogram("knor_serve_request_seconds", "", nil)
	observed := edge.Count()
	for i := 0; i < 5; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatalf("assign with telemetry disabled: %d", code)
		}
	}
	if got := edge.Count(); got != observed {
		t.Errorf("edge histogram moved with telemetry disabled: %d -> %d observations", observed, got)
	}
	after := readStats()
	for _, key := range []string{"p50_ms", "p95_ms", "p99_ms", "mean_ms"} {
		if before[key] != after[key] {
			t.Errorf("%s moved with telemetry disabled: %v -> %v", key, before[key], after[key])
		}
	}
}

// TestPprofGate: /debug/pprof/ serves only when opted in.
func TestPprofGate(t *testing.T) {
	_, tsOff := newTestServer(t, serverOptions{})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
	_, tsOn := newTestServer(t, serverOptions{pprof: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: %d", resp.StatusCode)
	}
}

// TestClusterMetricsEndpoint: /metrics/cluster serves the federated
// exposition in every mode — single-process it is rank 0 alone, every
// series labeled rank="0" and no stale marker raised.
func TestClusterMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	resp, err := http.Get(ts.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/cluster: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics/cluster content type: %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, `rank="0"`) {
		t.Error("federated exposition carries no rank=\"0\" series")
	}
	if !strings.Contains(text, `knor_serve_requests_total{rank="0"}`) {
		t.Error("federated exposition missing rank-labeled serve counter")
	}
	if strings.Contains(text, `knor_federation_stale{rank="0"} 1`) {
		t.Error("rank 0 marked stale on its own scrape")
	}
}

// TestClusterStatsEndpoint: /v1/cluster/stats answers the per-rank
// digest with latency quantiles and shard counts, never stale for the
// local rank.
func TestClusterStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, replicas: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	for i := 0; i < 3; i++ {
		if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
			t.Fatal("assign failed")
		}
	}
	var stats struct {
		Ranks []struct {
			Rank   int     `json:"rank"`
			Stale  bool    `json:"stale"`
			P50MS  float64 `json:"p50_ms"`
			P99MS  float64 `json:"p99_ms"`
			Shards float64 `json:"shards"`
		} `json:"ranks"`
	}
	if code := getJSON(t, ts.URL+"/v1/cluster/stats", &stats); code != http.StatusOK {
		t.Fatalf("cluster/stats: %d", code)
	}
	if len(stats.Ranks) != 1 {
		t.Fatalf("simulated-machine mode reports %d ranks, want 1 (one process)", len(stats.Ranks))
	}
	r0 := stats.Ranks[0]
	if r0.Rank != 0 || r0.Stale {
		t.Fatalf("rank 0 digest: %+v", r0)
	}
	if r0.P50MS <= 0 || r0.P99MS < r0.P50MS {
		t.Errorf("latency quantiles not populated/ordered: p50=%v p99=%v", r0.P50MS, r0.P99MS)
	}
	if r0.Shards <= 0 {
		t.Errorf("rank 0 shard copies = %v, want > 0 after publish", r0.Shards)
	}
}

// TestClusterStatsInflight parks one /assign flush and requires rank
// 0's inflight on /v1/cluster/stats to read 1, on the single-node path
// and on the sharded path, whose edge records its own gauge.
func TestClusterStatsInflight(t *testing.T) {
	for _, machines := range []int{1, 2} {
		s, ts := newTestServer(t, serverOptions{machines: machines})
		if code, body := postJSON(t, ts.URL+"/v1/models",
			`{"name":"inf","k":2,"rows":[[0,0],[0,1],[1,0],[1,1]]}`); code != http.StatusCreated {
			t.Fatalf("create: %d %v", code, body)
		}
		release := parkAssigns(t, s)
		parked := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/assign", "application/json",
				strings.NewReader(`{"model":"inf","rows":[[0.5,0.5]]}`))
			if err != nil {
				t.Errorf("parked request: %v", err)
				parked <- 0
				return
			}
			resp.Body.Close()
			parked <- resp.StatusCode
		}()
		waitFor(t, "the parked request to be admitted", func() bool {
			return s.batcher.InFlight()["inf"] == 1
		})
		waitFor(t, fmt.Sprintf("machines=%d: rank 0 inflight to read 1", machines), func() bool {
			var stats struct {
				Ranks []struct {
					Inflight float64 `json:"inflight"`
				} `json:"ranks"`
			}
			if code := getJSON(t, ts.URL+"/v1/cluster/stats", &stats); code != http.StatusOK || len(stats.Ranks) == 0 {
				t.Fatalf("cluster/stats: %d %+v", code, stats)
			}
			return stats.Ranks[0].Inflight == 1
		})
		release()
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("machines=%d: parked request answered %d", machines, code)
		}
	}
}

// TestEventsJournalEndpoint: /debug/events serves the structured
// journal with a working since-seq cursor, and cluster activity (a
// publish) lands in it.
func TestEventsJournalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	type eventsPage struct {
		LastSeq uint64 `json:"last_seq"`
		Events  []struct {
			Seq       uint64 `json:"seq"`
			Component string `json:"component"`
			Severity  string `json:"severity"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	var page eventsPage
	if code := getJSON(t, ts.URL+"/debug/events", &page); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if page.LastSeq == 0 || len(page.Events) == 0 {
		t.Fatalf("journal empty after a publish: last_seq=%d n=%d", page.LastSeq, len(page.Events))
	}
	found := false
	for i, ev := range page.Events {
		if ev.Msg == "model published" && ev.Component == "serve" {
			found = true
		}
		if i > 0 && ev.Seq <= page.Events[i-1].Seq {
			t.Fatalf("events not ascending: seq %d after %d", ev.Seq, page.Events[i-1].Seq)
		}
	}
	if !found {
		t.Errorf("no 'model published' event in journal page: %+v", page.Events)
	}
	// Cursor: asking since=last_seq returns nothing new.
	var empty eventsPage
	if code := getJSON(t, ts.URL+"/debug/events?since="+fmt.Sprint(page.LastSeq), &empty); code != http.StatusOK {
		t.Fatalf("events cursor: %d", code)
	}
	for _, ev := range empty.Events {
		if ev.Seq <= page.LastSeq {
			t.Fatalf("cursor returned already-seen seq %d (cursor %d)", ev.Seq, page.LastSeq)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/events?since=bogus", &empty); code != http.StatusBadRequest {
		t.Fatalf("bad since cursor answered %d, want 400", code)
	}
}

// TestTraceDumpIdentity: the /debug/traces dump carries the hex trace
// ID and only non-negative span geometry — the regression surface for
// out-of-order span arrival from stitched cluster traces.
func TestTraceDumpIdentity(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{machines: 2, traceEvery: 1})
	if code, body := postJSON(t, ts.URL+"/v1/models", createBody); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/assign", `{"model":"obs","rows":[[1,1]]}`); code != http.StatusOK {
		t.Fatal("assign failed")
	}
	var dump struct {
		Traces []struct {
			ID      uint64  `json:"id"`
			TraceID string  `json:"trace_id"`
			TotalUS float64 `json:"total_us"`
			Stages  []struct {
				Name    string  `json:"name"`
				StartUS float64 `json:"start_us"`
				DurUS   float64 `json:"dur_us"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &dump); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no sampled traces")
	}
	for _, tr := range dump.Traces {
		if want := fmt.Sprintf("%016x", tr.ID); tr.TraceID != want {
			t.Errorf("trace_id = %q, want %q", tr.TraceID, want)
		}
		if tr.TotalUS < 0 {
			t.Errorf("trace %d total_us negative: %v", tr.ID, tr.TotalUS)
		}
		for i, st := range tr.Stages {
			if st.StartUS < 0 || st.DurUS < 0 {
				t.Errorf("trace %d stage %q has negative geometry: start=%v dur=%v",
					tr.ID, st.Name, st.StartUS, st.DurUS)
			}
			if i > 0 && st.StartUS < tr.Stages[i-1].StartUS {
				t.Errorf("trace %d stages not sorted by start: %q at %v after %q at %v",
					tr.ID, st.Name, st.StartUS, tr.Stages[i-1].Name, tr.Stages[i-1].StartUS)
			}
		}
	}
}
