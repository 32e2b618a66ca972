package main

import (
	"fmt"
	"net/http"
	"strconv"

	"knor/internal/shardserve"
	"knor/internal/telemetry"
)

// Cluster-wide observability endpoints: /metrics/cluster federates
// every rank's telemetry registry into one Prometheus page,
// /v1/cluster/stats condenses the same snapshots into per-rank health
// numbers, and /debug/events serves the structured cluster journal.

// federate pulls one snapshot per rank. In single-process and
// simulated-machine modes there is no hub, so the result is rank 0's
// local registry alone — the endpoints stay useful at every -machines
// setting.
func (s *server) federate() []telemetry.RankSnapshot {
	return shardserve.FederateMetrics(s.hub, s.shards, telemetry.Default)
}

// handleClusterMetrics renders the federated Prometheus exposition:
// every series from every rank under a rank="N" label, families in
// deterministic order, dead workers present as
// knor_federation_stale{rank} 1 instead of blocking the scrape.
func (s *server) handleClusterMetrics(w http.ResponseWriter, _ *http.Request) {
	snaps := s.federate()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WriteFederatedPrometheus(w, snaps)
}

// rankStats is one rank's condensed health on /v1/cluster/stats.
type rankStats struct {
	Rank  int  `json:"rank"`
	Stale bool `json:"stale"`
	// Latency quantiles: rank 0's /v1/assign edge (the same numbers
	// /v1/stats reports), the shard GEMM path on workers (their edge
	// instruments are internal).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// BytesTotal sums the rank's transport traffic, both directions.
	BytesTotal float64 `json:"bytes_total"`
	// Inflight is rank 0's in-flight /v1/assign requests, read from
	// its edge's gauge (edgeFamily). Worker ranks have no edge and
	// read 0.
	Inflight float64 `json:"inflight"`
	// Shards is the live shard-copy count the rank holds.
	Shards float64 `json:"shards"`
}

// handleClusterStats answers the per-rank digest: latency quantiles,
// transport bytes, in-flight requests, and live shard copies for every
// rank, with dead workers marked stale rather than omitted.
func (s *server) handleClusterStats(w http.ResponseWriter, _ *http.Request) {
	snaps := s.federate()
	ranks := make([]rankStats, 0, len(snaps))
	for _, snap := range snaps {
		rs := rankStats{Rank: snap.Rank, Stale: snap.Stale}
		if !snap.Stale {
			if snap.Rank == 0 {
				rs.P50MS, rs.P95MS, rs.P99MS, _ = s.edgeLatencyMS(snap.Families)
			} else {
				const lat = "knor_serve_gemm_seconds"
				rs.P50MS = famQuantile(snap.Families, lat, 0.50) * 1e3
				rs.P95MS = famQuantile(snap.Families, lat, 0.95) * 1e3
				rs.P99MS = famQuantile(snap.Families, lat, 0.99) * 1e3
			}
			rs.BytesTotal = famSum(snap.Families, "knor_net_bytes_total")
			if snap.Rank == 0 {
				rs.Inflight = famSum(snap.Families, s.edgeFamily("inflight_requests"))
				if s.shards != nil {
					rs.Shards = float64(s.shards.CopiesOn(0))
				}
			} else {
				rs.Shards = famSum(snap.Families, "knor_peer_shards")
			}
		}
		ranks = append(ranks, rs)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ranks": ranks})
}

// edgeFamily names the telemetry family with the given suffix that
// this process's /v1/assign edge records. Both deployments run one
// serve.Edge, on the fan-out's family (knor_shardserve_…) when the
// server shards its models over machines, on the single-node family
// (knor_serve_…) otherwise; shard batchers answer below it.
func (s *server) edgeFamily(suffix string) string {
	if s.shards != nil {
		return "knor_shardserve_" + suffix
	}
	return "knor_serve_" + suffix
}

// edgeLatencyMS reads the p50, p95, p99 and mean of this process's
// /v1/assign edge latency, in milliseconds, from the edge's histogram
// family in fams (edgeFamily). All four are 0 before the first request
// (JSON has no NaN). /v1/stats, /v1/cluster/stats rank 0 and the
// -loadtest report all read it.
func (s *server) edgeLatencyMS(fams []telemetry.SnapshotFamily) (p50, p95, p99, mean float64) {
	h := famHistogram(fams, s.edgeFamily("request_seconds"))
	if h.Count == 0 {
		return 0, 0, 0, 0
	}
	return h.Quantile(0.50) * 1e3, h.Quantile(0.95) * 1e3, h.Quantile(0.99) * 1e3,
		h.Sum / float64(h.Count) * 1e3
}

// famQuantile returns a histogram family's quantile q, 0 when the
// family is absent or empty.
func famQuantile(fams []telemetry.SnapshotFamily, name string, q float64) float64 {
	h := famHistogram(fams, name)
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(q)
}

// famHistogram merges a histogram family's samples across label sets.
func famHistogram(fams []telemetry.SnapshotFamily, name string) telemetry.SnapshotSample {
	var merged telemetry.SnapshotSample
	for _, fam := range fams {
		if fam.Name != name || fam.Kind != "histogram" {
			continue
		}
		for _, sm := range fam.Samples {
			if merged.Bounds == nil {
				merged.Bounds = sm.Bounds
				merged.Buckets = append([]uint64(nil), sm.Buckets...)
				merged.Sum, merged.Count = sm.Sum, sm.Count
				continue
			}
			for i := range sm.Buckets {
				if i < len(merged.Buckets) {
					merged.Buckets[i] += sm.Buckets[i]
				}
			}
			merged.Sum += sm.Sum
			merged.Count += sm.Count
		}
	}
	return merged
}

// famSum sums a counter/gauge family's sample values across label sets.
func famSum(fams []telemetry.SnapshotFamily, name string) float64 {
	var v float64
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, sm := range fam.Samples {
			v += sm.Value
		}
	}
	return v
}

// handleEvents serves the structured cluster journal with a since-seq
// cursor: GET /debug/events?since=N&max=M returns events with Seq > N
// (ascending), at most M of them (default 256). Pollers resume from
// the last_seq they saw; a gap in Seq means the ring overwrote events
// between polls.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		since = n
	}
	max := 256
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		max = n
	}
	events := telemetry.DefaultJournal.Since(since, max)
	writeJSON(w, http.StatusOK, map[string]any{
		"last_seq": telemetry.DefaultJournal.LastSeq(),
		"events":   events,
	})
}
