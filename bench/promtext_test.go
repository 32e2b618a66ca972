package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParsePromSeriesAndHistograms(t *testing.T) {
	text := `# HELP knor_http_requests_total HTTP requests served.
# TYPE knor_http_requests_total counter
knor_http_requests_total{code="200",path="/v1/assign"} 41
knor_http_requests_total{code="200",path="/metrics"} 2
knor_odd_total{note="say \"hi\" \\ bye"} 1
# TYPE knor_serve_gemm_seconds histogram
knor_serve_gemm_seconds_bucket{le="0.001"} 3
knor_serve_gemm_seconds_bucket{le="+Inf"} 4
knor_serve_gemm_seconds_sum 0.01
knor_serve_gemm_seconds_count 4
knor_store_resident_pages 12
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("knor_http_requests_total"); got != 43 {
		t.Errorf("sum over labels = %v, want 43", got)
	}
	if got := s.sum("knor_http_requests_total", "path", "/v1/assign"); got != 41 {
		t.Errorf("labelled sum = %v, want 41", got)
	}
	if got := s.sum("knor_odd_total", "note", `say "hi" \ bye`); got != 1 {
		t.Errorf("escaped label value not matched: %v", got)
	}
	if got := s.histMean("knor_serve_gemm_seconds"); got != 0.0025 {
		t.Errorf("histogram mean = %v, want 0.0025", got)
	}
	if got := s.sum("knor_store_resident"); got != 0 {
		t.Errorf("a name prefix matched another series: %v", got)
	}
	for _, bad := range []string{"knor_x{a=\"1\" 3\n", "knor_x\n", "knor_x{a=1} 3\n", "knor_x 1e\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed line %q parsed", bad)
		}
	}
}

func golden(t *testing.T, name string) scrape {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// The single-node pair was scraped from knorserve around seven 2-row
// /v1/assign requests sent one at a time.
func TestDiffSingleNodeScrapes(t *testing.T) {
	d := golden(t, "single_after.prom").sub(golden(t, "single_before.prom"))
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"knor_serve_requests_total", nil, 7},
		{"knor_serve_rows_total", nil, 14},
		{"knor_http_requests_total", []string{"path", "/v1/assign", "code", "200"}, 7},
		// The first scrape is counted once it has been written, so it
		// lands in the second one: one scrape per phase.
		{"knor_http_request_seconds_count", nil, 8},
	} {
		if got := d.sum(c.name, c.match...); got != c.want {
			t.Errorf("Δ%s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if got := d.histMean("knor_serve_batch_rows"); got != 2 {
		t.Errorf("rows per flush = %v, want 2", got)
	}
	if edge, http := d.histMean("knor_serve_request_seconds"), d.histMean("knor_http_request_seconds"); !(edge > 0 && edge < 1 && http > 0) {
		t.Errorf("edge mean %v s, HTTP mean %v s", edge, http)
	}
}

// The cluster pair was scraped from a coordinator's /metrics/cluster
// (coordinator plus one worker) around the same seven requests.
func TestDiffClusterScrapes(t *testing.T) {
	d := golden(t, "cluster_after.prom").sub(golden(t, "cluster_before.prom"))
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"knor_shardserve_requests_total", []string{"rank", "0"}, 7},
		{"knor_shardserve_requests_total", []string{"rank", "1"}, 0},
		{"knor_serve_flushes_total", []string{"rank", "0"}, 7},
		{"knor_serve_flushes_total", []string{"rank", "1"}, 7},
		{"knor_shardserve_shard_seconds_count", []string{"rank", "0", "shard", "1"}, 7},
	} {
		if got := d.sum(c.name, c.match...); got != c.want {
			t.Errorf("Δ%s%v = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	if rtt := d.histMean("knor_net_roundtrip_seconds", "rank", "0"); !(rtt > 0 && rtt < 1) {
		t.Errorf("transport round trip mean %v s", rtt)
	}
	if got := d.sum("knor_net_bytes_total", "rank", "0"); got <= 0 {
		t.Errorf("no transport bytes counted on the coordinator: %v", got)
	}
}
