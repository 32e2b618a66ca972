// Package serve is the online-clustering service layer: it turns the
// batch trainers (knori/knors/knord) into a system that answers live
// queries and keeps learning.
//
// Three pieces compose it:
//
//   - Registry — named, versioned centroid sets. Publishing clones the
//     centroids into an immutable Model snapshot (copy-on-write), so
//     queries in flight never observe a half-updated model and never
//     block a trainer.
//   - Batcher — the assignment path. Each request passes one Edge,
//     shared with the sharded fan-out: quota, in-flight, trace, a
//     clamp of cancellation noise on the final answer, and latency in
//     knor_serve_request_seconds, the source of /metrics and of
//     knorserve's /v1/stats quantiles. Below it, concurrent requests
//     coalesce into one raw ‖v‖²+‖c‖²−2·V·Cᵀ flush, which
//     blas.NearestRows answers at either precision against a cached
//     centroid panel, without materialising the m×k distances.
//   - StreamEngine — the updater. Incoming observations fold into a
//     kmeans.MiniBatchState with per-centroid learning rates, forever;
//     explicit state makes checkpoint/resume exact.
package serve
