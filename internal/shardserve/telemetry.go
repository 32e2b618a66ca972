package shardserve

import (
	"knor/internal/serve"
	"knor/internal/telemetry"
)

// Fan-out instruments, registered at init against telemetry.Default.
// telEdge is the fan-out edge's family, one count per distributed
// request; the shard batchers answer below any edge, so they leave the
// knor_serve_… edge family alone but still feed the process-wide
// flush/GEMM/queue series.
var (
	telRequestSeconds = telemetry.Default.Histogram("knor_shardserve_request_seconds",
		"End-to-end /assign latency at the fan-out edge.", telemetry.DefLatencyBuckets())
	telEdge = serve.EdgeTelemetry{
		Requests: telemetry.Default.Counter("knor_shardserve_requests_total",
			"Assign requests answered by the fan-out edge."),
		Rows: telemetry.Default.Counter("knor_shardserve_rows_total",
			"Query rows answered by the fan-out edge."),
		Rejected: telemetry.Default.Counter("knor_shardserve_rejected_total",
			"Requests refused by the per-model in-flight quota at the fan-out edge."),
		Seconds: telRequestSeconds,
		Inflight: telemetry.Default.GaugeVec("knor_shardserve_inflight_requests",
			"In-flight assignment requests per model at the fan-out edge.", "model"),
	}
	telSkewRetries = telemetry.Default.Counter("knor_shardserve_skew_retries_total",
		"Fan-out attempts retried because a concurrent publish skewed shard versions.")
	telShardSeconds = telemetry.Default.HistogramVec("knor_shardserve_shard_seconds",
		"Per-shard fan-out latency: dispatch to that shard's answer.",
		telemetry.DefLatencyBuckets(), "shard")
	telMinReduceSeconds = telemetry.Default.Histogram("knor_shardserve_minreduce_seconds",
		"Time folding shard answers into the global argmin (first to last combine).",
		telemetry.DefLatencyBuckets())
	telFailovers = telemetry.Default.CounterVec("knor_shardserve_failovers_total",
		"Fan-outs that passed over a shard group's preferred replica (dead or erring) to a backup.",
		"shard")
	telUnavailable = telemetry.Default.Counter("knor_shardserve_unavailable_total",
		"Shard-group answers that failed on every replica (the group was unavailable).")
	telRebalances = telemetry.Default.Counter("knor_shardserve_rebalances_total",
		"Placement rebalances triggered by membership transitions (replicas re-spread from the canonical copies).")
	telSpreadBytes = telemetry.Default.Counter("knor_shardserve_spread_bytes_total",
		"Centroid payload bytes copied into machine registries by publishes, mirrors and healing re-spreads.")
	telPushErrors = telemetry.Default.Counter("knor_shardserve_push_errors_total",
		"Shard restore/drop pushes to peer processes that failed (dead peer; the next rebalance re-spreads).")
)
