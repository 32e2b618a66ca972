package serve

import "knor/internal/telemetry"

// Process-wide serving instruments, registered at init against
// telemetry.Default so any binary linking the serving layer exposes
// them on GET /metrics. Per-batcher counters (BatcherStats) stay
// instance-local; these aggregate across every batcher in the process.
//
// In sharded deployments the per-shard batchers run with
// BatcherOptions.Shard set: they contribute to the flush/GEMM/queue
// instruments (their flushes are real GEMMs) but not to the edge
// instruments (requests, rows, rejections, request latency, in-flight),
// which the fan-out edge owns — so a request is never double-counted.
var (
	telRequests = telemetry.Default.Counter("knor_serve_requests_total",
		"Assign/AssignBatch calls answered by the single-node edge.")
	telRows = telemetry.Default.Counter("knor_serve_rows_total",
		"Query rows answered by the single-node edge.")
	telFlushes = telemetry.Default.Counter("knor_serve_flushes_total",
		"Blocked GEMM distance computations performed (per shard in sharded mode).")
	telRejected = telemetry.Default.Counter("knor_serve_rejected_total",
		"Requests refused by the per-model in-flight quota (HTTP 429).")
	telQueueDepth = telemetry.Default.Gauge("knor_serve_queue_depth_rows",
		"Query rows waiting for the next batch flush right now.")
	telBatchRows = telemetry.Default.Histogram("knor_serve_batch_rows",
		"Rows coalesced per GEMM flush.", telemetry.DefSizeBuckets())
	telGemmSeconds = telemetry.Default.Histogram("knor_serve_gemm_seconds",
		"Wall time of one blocked GEMM distance computation.", telemetry.DefLatencyBuckets())
	telRequestSeconds = telemetry.Default.Histogram("knor_serve_request_seconds",
		"End-to-end /assign latency at the single-node edge.", telemetry.DefLatencyBuckets())
	telInflight = telemetry.Default.GaugeVec("knor_serve_inflight_requests",
		"In-flight assignment requests per model at the single-node edge.", "model")

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
