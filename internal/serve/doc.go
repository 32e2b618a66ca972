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
//   - Batcher — the assignment path. Concurrent Assign calls are
//     coalesced into one ‖v‖²+‖c‖²−2·V·Cᵀ distance computation
//     through internal/blas, amortising per-request overhead; each
//     request's latency is observed into the registered
//     knor_serve_request_seconds histogram, the source of /metrics and
//     of knorserve's /v1/stats quantiles.
//   - StreamEngine — the updater. Incoming observations fold into a
//     kmeans.MiniBatchState with per-centroid learning rates, forever;
//     explicit state makes checkpoint/resume exact.
package serve
