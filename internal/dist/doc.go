// Package dist implements knord, the paper's distributed k-means
// module (Section 8.9, Figures 11-13): decentralised per-machine
// drivers — each a full NUMA-aware ||Lloyd's engine over a contiguous
// row shard — merged once per iteration by an MPI-style collective.
//
// There is one iteration loop, the rank runner in transport.go: a local
// super-phase, one allgather of the per-machine deltas, and the
// identical global apply on every rank. RunTransport drives one rank
// over a real netcluster.Transport (one OS process per machine); Run
// and RunPrecision drive all M ranks as goroutines over an in-process
// netcluster.SimGroup, sharing one prepared input.
//
// The cluster is simulated the same way the NUMA machine and the SSD
// array are (see DESIGN.md's substitution table): data partitioning,
// assignments, membership deltas and convergence are computed for real,
// while every rank charges a replica of the simulated interconnect
// (cluster.Network, NICs as simclock Resources) with the paper's
// modelled collective, so the reported SimSeconds compose per-machine
// engine clocks with deterministic network time — identical whichever
// transport carried the frames.
//
// Three execution modes reproduce the paper's comparison:
//
//   - ModeKnord — the paper's design: NUMA-aware engines joined by a
//     bandwidth-optimal ring allreduce of the per-machine centroid
//     accumulators (k·d sums + k counts per machine, the payload
//     documented on kmeans.Accum.SerializedBytes).
//   - ModeMPI — the same decentralised collectives driving NUMA-
//     oblivious engines: the routine MPI port that lacks the paper's
//     intra-machine optimisations.
//   - ModeMLlib — a master-worker emulation of Spark MLlib's k-means:
//     per-task driver dispatch (Config.MLlibTaskOverhead), boxed-row
//     access costs, no pruning, and a gather-to-driver + broadcast
//     aggregation that serialises every worker's payload through the
//     master NIC — the bottleneck that separates Figures 11-12's
//     curves.
//
// Every mode is algorithmically exact: because initial centroids are
// drawn from the *full* dataset before sharding and each iteration
// applies the identical allgathered delta on every machine, knord's
// assignments and centroids reproduce the serial Lloyd's oracle for any
// machine count (the modes differ only in simulated cost).
package dist
