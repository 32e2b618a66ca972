package serve

import "knor/internal/telemetry"

// Process-wide serving instruments, registered at init against
// telemetry.Default so any binary linking the serving layer exposes
// them on GET /metrics. Per-batcher counters (BatcherStats) stay
// instance-local; these aggregate across every batcher in the process.
//
// telEdge is the single-node edge's family (requests, rows,
// rejections, request latency, in-flight). A sharded deployment's edge
// records on shardserve's knor_shardserve_… family instead, and its
// shard batchers answer below any edge, so a request is never
// double-counted; every flush, sharded or not, feeds the
// flush/GEMM/queue instruments.
var (
	telRequestSeconds = telemetry.Default.Histogram("knor_serve_request_seconds",
		"End-to-end /assign latency at the single-node edge.", telemetry.DefLatencyBuckets())
	telEdge = EdgeTelemetry{
		Requests: telemetry.Default.Counter("knor_serve_requests_total",
			"Assign requests answered by the single-node edge."),
		Rows: telemetry.Default.Counter("knor_serve_rows_total",
			"Query rows answered by the single-node edge."),
		Rejected: telemetry.Default.Counter("knor_serve_rejected_total",
			"Requests refused by the per-model in-flight quota (HTTP 429)."),
		Seconds: telRequestSeconds,
		Inflight: telemetry.Default.GaugeVec("knor_serve_inflight_requests",
			"In-flight assignment requests per model at the single-node edge.", "model"),
	}
	telFlushes = telemetry.Default.Counter("knor_serve_flushes_total",
		"Blocked GEMM distance computations performed (per shard in sharded mode).")
	telQueueDepth = telemetry.Default.Gauge("knor_serve_queue_depth_rows",
		"Query rows waiting for the next batch flush right now.")
	telBatchRows = telemetry.Default.Histogram("knor_serve_batch_rows",
		"Rows coalesced per GEMM flush.", telemetry.DefSizeBuckets())
	telGemmSeconds = telemetry.Default.Histogram("knor_serve_gemm_seconds",
		"Wall time of one blocked GEMM distance computation.", telemetry.DefLatencyBuckets())

	telPublishes = telemetry.Default.Counter("knor_registry_publishes_total",
		"Model versions published or restored into a registry.")
	telEvictions = telemetry.Default.Counter("knor_registry_evictions_total",
		"Model versions evicted by retention (count or age bounds).")
	telSnapshotSaves = telemetry.Default.Counter("knor_registry_snapshot_saves_total",
		"Registry state files written (publish-coalesced and shutdown saves).")
	telSnapshotLoads = telemetry.Default.Counter("knor_registry_snapshot_loads_total",
		"Registry state files loaded at boot.")
)

// SnapshotSaves reports the process-wide count of registry state saves
// (exposed on /v1/stats next to the Prometheus series).
func SnapshotSaves() uint64 { return telSnapshotSaves.Load() }

// SnapshotLoads reports the process-wide count of registry state loads.
func SnapshotLoads() uint64 { return telSnapshotLoads.Load() }
