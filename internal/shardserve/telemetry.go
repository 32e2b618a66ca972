package shardserve

import "knor/internal/telemetry"

// Fan-out-edge instruments, registered at init against
// telemetry.Default. The per-shard serve.BatcherOf instances run with
// BatcherOptions.Shard set, so the serve-layer edge instruments stay
// silent and these count each distributed request exactly once; the
// shard batchers still feed the process-wide flush/GEMM/queue series.
var (
	telRequests = telemetry.Default.Counter("knor_shardserve_requests_total",
		"Assign/AssignBatch calls answered by the fan-out edge.")
	telRows = telemetry.Default.Counter("knor_shardserve_rows_total",
		"Query rows answered by the fan-out edge.")
	telRejected = telemetry.Default.Counter("knor_shardserve_rejected_total",
		"Requests refused by the per-model in-flight quota at the fan-out edge.")
	telSkewRetries = telemetry.Default.Counter("knor_shardserve_skew_retries_total",
		"Fan-out attempts retried because a concurrent publish skewed shard versions.")
	telRequestSeconds = telemetry.Default.Histogram("knor_shardserve_request_seconds",
		"End-to-end /assign latency at the fan-out edge.", telemetry.DefLatencyBuckets())
	telShardSeconds = telemetry.Default.HistogramVec("knor_shardserve_shard_seconds",
		"Per-shard fan-out latency: dispatch to that shard's answer.",
		telemetry.DefLatencyBuckets(), "shard")
	telMinReduceSeconds = telemetry.Default.Histogram("knor_shardserve_minreduce_seconds",
		"Time folding shard answers into the global argmin (first to last combine).",
		telemetry.DefLatencyBuckets())
	telInflight = telemetry.Default.GaugeVec("knor_shardserve_inflight_requests",
		"In-flight assignment requests per model at the fan-out edge.", "model")
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
