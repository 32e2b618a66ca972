// Package shardserve is the distributed serving layer: one model's k
// centroids sharded across M machines (simulated in-process, or real
// worker processes), /assign batches fanned out to every shard and the
// shards' answers folded into the global argmin at the coordinator as
// they arrive — the paper's scale-out story (knord's row-sharded
// cluster) applied to the online path (the serve layer's batched GEMM
// assigner), so query throughput is no longer bound by one machine's
// GEMM rate or one machine's memory for k×d centroids.
//
// Two pieces compose it:
//
//   - ShardRegistry — M per-machine serve.Registry instances kept in
//     lockstep: publishing a model splits its centroid rows into
//     contiguous shards (dist.Partition, the same row-sharding knord
//     uses) and restores shard i into machine i's registry at the
//     SAME version number, copy-on-write like the single-node
//     registry, keeping only each shard's latest version. Attach
//     mirrors an existing registry, so a knorserve with -machines M
//     shards every publish; a publish with a different k rebalances.
//   - AssignerOf — the fan-out router. A request passes the same
//     serve.Edge as on one node (quota, in-flight, trace, counters,
//     clamp); below it the batch goes to all shards concurrently, each
//     machine's shard batcher (or, in cluster mode, a ServePeer
//     process) answers raw local (argmin, dist) pairs against only its
//     centroid rows, and answers are folded into the global result as
//     they arrive (cluster.CombineMin). The result is bit-identical to
//     the single-node serve.Assigner for any machine count and either
//     precision: the edge clamps cancellation noise once, after the
//     global min, ties break on the lowest global centroid index as
//     the single-node ascending scan does, and the blas kernels give a
//     centroid block sliced out of a larger matrix bit-identical
//     distances at both widths.
package shardserve
