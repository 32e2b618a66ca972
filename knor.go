// Package knor is a Go reproduction of "knor: A NUMA-Optimized
// In-Memory, Distributed and Semi-External-Memory k-means Library"
// (Mhembere et al., HPDC 2017).
//
// The library exposes the paper's three modules through one facade:
//
//   - Run — knori, the NUMA-aware in-memory ||Lloyd's engine with
//     minimal-triangle-inequality (MTI) pruning;
//   - RunSEM — knors, semi-external memory: O(n) state in RAM, row data
//     streamed from a simulated SSD array through a SAFS-like layer with
//     a partitioned lazily-updated row cache;
//   - RunDistributed — knord, decentralised per-machine drivers merged
//     with MPI-style allreduce collectives.
//
// On top of the batch trainers sits an online serving layer (see
// Registry, Batcher and StreamEngine, and the knorserve command):
// models published copy-on-write, queries answered through batched GEMM
// distance computations, and stream updaters that keep folding new
// observations into a model while it serves. NewShardedAssigner scales
// that layer out: a model's centroids sharded across simulated
// machines (knord's row-sharding applied to the online path), queries
// fanned out and each shard's answer folded into the global argmin as
// it arrives, bit-identical to the single-node assigner.
//
// Hardware-gated effects (thread pinning, NUMA banks, SSD arrays,
// cluster NICs) run through a deterministic simulated-cost layer — Go
// offers no portable NUMA control — while all algorithmic behaviour
// (assignments, pruning, cache hits, byte counts) is computed for real.
// Every engine is bit-compatible with the serial Lloyd's oracle; see
// DESIGN.md for the substitution table and EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Quickstart:
//
//	data := knor.Generate(knor.Spec{Kind: knor.NaturalClusters, N: 10000, D: 8, Clusters: 10, Seed: 1})
//	res, err := knor.Run(data, knor.Config{K: 10, Prune: knor.PruneMTI, Threads: 8})
package knor

import (
	"knor/internal/dist"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/metrics"
	"knor/internal/numa"
	"knor/internal/numaml"
	"knor/internal/sched"
	"knor/internal/sem"
	"knor/internal/serve"
	"knor/internal/shardserve"
	"knor/internal/simclock"
	"knor/internal/store"
	"knor/internal/topology"
	"knor/internal/workload"
)

// Core types, re-exported so callers need only this package.
type (
	// Matrix is a dense row-major float64 matrix.
	Matrix = matrix.Dense
	// Matrix32 is the float32 instantiation of the same matrix type,
	// for callers driving the generic engines directly.
	Matrix32 = matrix.Mat[float32]
	// Precision selects the numeric core's element type at the API
	// edges (RunPrecision, NewAssigner, the -precision CLI flags).
	Precision = kmeans.Precision
	// Config controls an in-memory (knori) run.
	Config = kmeans.Config
	// Result is the outcome of any run.
	Result = kmeans.Result
	// IterStats records one iteration's behaviour.
	IterStats = kmeans.IterStats
	// SEMConfig controls a semi-external-memory (knors) run.
	SEMConfig = sem.Config
	// SEMEngine is a stepwise knors driver with checkpoint support.
	SEMEngine = sem.Engine
	// DistConfig controls a distributed (knord) run.
	DistConfig = dist.Config
	// Spec describes a synthetic dataset.
	Spec = workload.Spec
	// Topology describes the simulated NUMA machine.
	Topology = numa.Topology
	// CostModel holds the simulation's calibration constants.
	CostModel = simclock.CostModel
)

// Numeric precisions. Precision64 runs the oracle engines; Precision32
// halves memory traffic on every kernel and answers within the
// relative-error bounds documented in EXPERIMENTS.md.
const (
	Precision64 = kmeans.Precision64
	Precision32 = kmeans.Precision32
)

// Pruning modes.
const (
	PruneNone    = kmeans.PruneNone
	PruneMTI     = kmeans.PruneMTI
	PruneTI      = kmeans.PruneTI
	PruneYinyang = kmeans.PruneYinyang
)

// Initialisation methods.
const (
	InitForgy           = kmeans.InitForgy
	InitRandomPartition = kmeans.InitRandomPartition
	InitKMeansPP        = kmeans.InitKMeansPP
	InitGiven           = kmeans.InitGiven
)

// Scheduler policies (Figure 5).
const (
	SchedStatic    = sched.Static
	SchedFIFO      = sched.FIFO
	SchedNUMAAware = sched.NUMAAware
)

// Placement policies for the simulated NUMA machine.
const (
	PlacePartitioned = numa.PlacePartitioned
	PlaceSingleBank  = numa.PlaceSingleBank
	PlaceInterleaved = numa.PlaceInterleaved
	PlaceRandom      = numa.PlaceRandom
)

// Dataset generator kinds.
const (
	NaturalClusters     = workload.NaturalClusters
	UniformMultivariate = workload.UniformMultivariate
	UniformUnivariate   = workload.UniformUnivariate
)

// Distributed modes (Section 8.9).
const (
	ModeKnord = dist.ModeKnord
	ModeMPI   = dist.ModeMPI
	ModeMLlib = dist.ModeMLlib
)

// Run executes knori: NUMA-aware in-memory ||Lloyd's.
func Run(data *Matrix, cfg Config) (*Result, error) {
	return kmeans.Run(data, cfg)
}

// RunPrecision executes knori at the requested precision: Precision64
// is exactly Run; Precision32 converts the data once and runs the
// float32 engine. Results are always reported in float64.
func RunPrecision(data *Matrix, cfg Config, p Precision) (*Result, error) {
	return kmeans.RunPrecision(data, cfg, p)
}

// Run32 executes knori on float32 data directly (no conversion), for
// callers that keep their dataset in single precision end to end.
func Run32(data *Matrix32, cfg Config) (*Result, error) {
	return kmeans.RunOf(data, cfg)
}

// ConvertMatrix32 copies a float64 matrix to float32 (rounding each
// element to nearest).
func ConvertMatrix32(m *Matrix) *Matrix32 { return matrix.Convert[float32](m) }

// RunSerial executes the single-threaded reference Lloyd's (with
// optional pruning), the oracle every optimised engine is tested
// against.
func RunSerial(data *Matrix, cfg Config) (*Result, error) {
	return kmeans.RunSerial(data, cfg)
}

// RunSEM executes knors: semi-external-memory k-means over the
// simulated SSD array.
func RunSEM(data *Matrix, cfg SEMConfig) (*Result, error) {
	return sem.Run(data, cfg)
}

// NewSEMEngine builds a stepwise knors engine (checkpoint/recovery).
func NewSEMEngine(data *Matrix, cfg SEMConfig) (*SEMEngine, error) {
	return sem.New(data, cfg)
}

// --- real I/O backend (internal/store) ---------------------------------

type (
	// StoreFile is an opened on-disk matrix in the knor store format,
	// read through a page cache with request merging and prefetch.
	StoreFile = store.File
	// StoreOptions tune an opened store file's I/O stack.
	StoreOptions = store.Options
	// StoreWriter streams rows into a new store file.
	StoreWriter = store.Writer
)

// RunSEMFile executes knors streaming row data from a store file on
// real hardware: the matrix is never materialised in memory — resident
// row data is bounded by the page- and row-cache budgets — and the
// BytesWanted/BytesRead counters follow the simulator's semantics.
func RunSEMFile(path string, cfg SEMConfig) (*Result, error) {
	return sem.RunFile(path, cfg)
}

// NewSEMEngineFromFile builds a stepwise knors engine over a store
// file; the engine owns the file and Close releases it.
func NewSEMEngineFromFile(path string, cfg SEMConfig) (*SEMEngine, error) {
	return sem.NewFromFile(path, cfg)
}

// OpenStore opens a store-format matrix for streaming reads.
func OpenStore(path string, opts StoreOptions) (*StoreFile, error) {
	return store.Open(path, opts)
}

// CreateStore starts writing a store file of n rows by d columns with
// the given element width (4 or 8 bytes).
func CreateStore(path string, n, d, elemBytes int) (*StoreWriter, error) {
	return store.Create(path, n, d, elemBytes)
}

// SaveMatrixStore writes a whole matrix as a store file.
func SaveMatrixStore(m *Matrix, path string, elemBytes int) error {
	return store.WriteDense(m, path, elemBytes)
}

// LoadMatrixAny reads a matrix from either on-disk format, sniffing
// the magic: store files (kmeansgen -format knor) and legacy
// whole-matrix files both load fully into memory.
func LoadMatrixAny(path string) (*Matrix, error) {
	isStore, err := store.SniffStore(path)
	if err != nil {
		return nil, err
	}
	if isStore {
		return store.ReadDense(path)
	}
	return matrix.LoadFile(path)
}

// RunDistributed executes knord (or the MPI/MLlib comparison modes)
// over the simulated cluster.
func RunDistributed(data *Matrix, cfg DistConfig) (*Result, error) {
	return dist.Run(data, cfg)
}

// RunMiniBatch executes the mini-batch approximation (extension).
func RunMiniBatch(data *Matrix, cfg Config, batch int) (*Result, error) {
	return kmeans.RunMiniBatch(data, cfg, batch)
}

// RunSemiSupervised runs k-means with semi-supervised k-means++ seeding
// (labels[i] >= 0 pins that row's class seed; -1 means unlabelled) —
// one of the paper's future-work variants (§9).
func RunSemiSupervised(data *Matrix, labels []int32, cfg Config) (*Result, error) {
	return kmeans.RunSemiSupervised(data, labels, cfg)
}

// Dendrogram is the merge history of an agglomerative run.
type Dendrogram = kmeans.Dendrogram

// AgglomerateCentroids builds a Ward-linkage hierarchy over a k-means
// result's centroids (two-stage clustering; future work §9). It returns
// the dendrogram and a flat cut into `cut` clusters.
func AgglomerateCentroids(centroids *Matrix, sizes []int, cut int) (*Dendrogram, []int, error) {
	return kmeans.AgglomerateCentroids(centroids, sizes, cut)
}

// --- generalised NUMA-ML framework (paper §9 future work) -------------

type (
	// MLKernel is a row-streaming iterative algorithm runnable on the
	// NUMA-aware driver (the paper's promised generalised framework).
	MLKernel = numaml.Kernel
	// MLConfig configures the generalised driver.
	MLConfig = numaml.Config
	// MLStats summarises a driver run.
	MLStats = numaml.Stats
	// GMM is a diagonal-covariance Gaussian mixture fitted by EM.
	GMM = numaml.GMM
	// KNN answers k-nearest-neighbour queries by NUMA-parallel scan.
	KNN = numaml.KNN
	// Neighbor is one kNN result.
	Neighbor = numaml.Neighbor
)

// RunKernel streams data through an MLKernel on the NUMA-aware driver.
func RunKernel(data *Matrix, k MLKernel, cfg MLConfig) (*MLStats, error) {
	return numaml.Run(data, k, cfg)
}

// NewGMM initialises a Gaussian mixture from seed centroids.
func NewGMM(seeds *Matrix, tol float64) *GMM { return numaml.NewGMM(seeds, tol) }

// NewKNN prepares a k-nearest-neighbour query batch.
func NewKNN(queries *Matrix, k int) *KNN { return numaml.NewKNN(queries, k) }

// --- online clustering service layer (internal/serve) ------------------

type (
	// Registry holds named, versioned model snapshots (copy-on-write).
	Registry = serve.Registry
	// ServeModel is one immutable published centroid snapshot.
	ServeModel = serve.Model
	// StreamEngine folds observations into a model forever (the
	// serving layer's updater), with exact checkpoint/resume.
	StreamEngine = serve.StreamEngine
	// StreamCheckpoint is a StreamEngine's explicit resumable state.
	StreamCheckpoint = serve.StreamCheckpoint
	// Batcher coalesces concurrent assignment requests into blocked
	// GEMM distance computations.
	Batcher = serve.Batcher
	// BatcherOptions tune the assignment path.
	BatcherOptions = serve.BatcherOptions
	// Assignment is the answer for one query row.
	Assignment = serve.Assignment
)

// NewRegistry builds a model registry pinning shards across the given
// number of simulated NUMA nodes.
func NewRegistry(nodes int) *Registry { return serve.NewRegistry(nodes) }

// NewStreamEngine starts a streaming updater for the named model from
// seed centroids, publishing them as version 1 when reg is non-nil.
func NewStreamEngine(name string, seeds *Matrix, reg *Registry) (*StreamEngine, error) {
	return serve.NewStreamEngine(name, seeds, reg)
}

// ResumeStreamEngine rebuilds a streaming updater from a checkpoint;
// fed the same remaining batches it lands bit-identically with an
// uninterrupted engine.
func ResumeStreamEngine(cp StreamCheckpoint, reg *Registry) (*StreamEngine, error) {
	return serve.ResumeStreamEngine(cp, reg)
}

// NewBatcher starts the batched assignment path over a registry.
func NewBatcher(reg *Registry, opts BatcherOptions) *Batcher {
	return serve.NewBatcher(reg, opts)
}

// Assigner is the precision-independent view of a batcher.
type Assigner = serve.Assigner

// NewAssigner starts the batched assignment path at the requested
// precision (Precision32 routes flushes through the float32 kernels
// against precomputed float32 centroid mirrors).
func NewAssigner(reg *Registry, opts BatcherOptions, p Precision) Assigner {
	return serve.NewAssigner(reg, opts, p)
}

// --- distributed serving (internal/shardserve) --------------------------

type (
	// ShardRegistry keeps one serve.Registry per simulated machine in
	// lockstep: publishing splits a model's centroid rows into
	// contiguous shards, one per machine, at the same version number.
	ShardRegistry = shardserve.ShardRegistry
	// ShardOptions configures a replicated shard registry: machine
	// count, replicas per shard group, and an optional membership
	// layer that triggers self-healing re-placement.
	ShardOptions = shardserve.Options
	// ChaosConfig drives a seeded kill-schedule run against a
	// replicated shard registry (see RunChaos).
	ChaosConfig = shardserve.ChaosConfig
	// ChaosStats summarises a chaos run: kills, failovers, errors,
	// wrong answers (always zero on a passing run), and recovery.
	ChaosStats = shardserve.ChaosStats
	// ClusterTopology is the cluster membership layer: health pulses,
	// sweep detection, and dead/recovered transitions dispatched over
	// channels to subscribers such as the shard registry. (Topology is
	// the simulated NUMA machine description.)
	ClusterTopology = topology.Topology
	// ClusterTopologyConfig sizes a ClusterTopology (machine count,
	// pulse timeout).
	ClusterTopologyConfig = topology.Config
)

// ErrShardUnavailable reports that every replica of a shard group was
// down; the error message names the dead centroid range [lo,hi).
// Other groups keep answering.
var ErrShardUnavailable = shardserve.ErrShardUnavailable

// NewClusterTopology builds a membership layer over machine IDs
// 0..machines-1, all initially live.
func NewClusterTopology(cfg ClusterTopologyConfig) *ClusterTopology {
	return topology.New(cfg)
}

// NewShardRegistry builds an empty centroid-sharded registry over the
// given machine count.
func NewShardRegistry(machines int) *ShardRegistry {
	return shardserve.NewShardRegistry(machines)
}

// NewShardedAssigner shards every model of reg (current and future
// publishes) across `machines` simulated machines and returns the
// fan-out assignment path at the requested precision: each machine
// answers queries against only its centroid shard, and per-shard
// argmins merge with lowest-global-index tie-breaking — bit-identical
// to the single-node NewAssigner for any machine count.
func NewShardedAssigner(reg *Registry, machines int, opts BatcherOptions, p Precision) (Assigner, error) {
	sr := shardserve.NewShardRegistry(machines)
	if err := sr.Attach(reg); err != nil {
		return nil, err
	}
	return shardserve.NewAssigner(sr, opts, p), nil
}

// NewReplicatedShardRegistry builds a shard registry whose shard
// groups are each placed on sopts.Replicas distinct machines; the
// fan-out assigner fails over across a group's replicas, so up to
// Replicas-1 machine deaths stay invisible to clients (answers remain
// bit-identical — every replica holds the same centroid rows at the
// same version). Wire a Topology into sopts to make the registry
// self-healing: on every dead/recovered transition it re-spreads shard
// replicas over the live machines from its retained canonical copies.
func NewReplicatedShardRegistry(sopts ShardOptions) *ShardRegistry {
	return shardserve.NewShardRegistryWith(sopts)
}

// RunChaos drives a seeded kill schedule against a replicated shard
// registry under QueryStream traffic, checking every answer against a
// single-node oracle bit for bit. Identical configs (same Seed)
// produce identical schedules and stats — the replay knob behind
// `make chaos-smoke`.
func RunChaos(cfg ChaosConfig) (ChaosStats, error) { return shardserve.RunChaos(cfg) }

// --- clustering quality metrics ----------------------------------------

// Silhouette computes the centroid-based simplified silhouette.
func Silhouette(data, centroids *Matrix, assign []int32) float64 {
	return metrics.SimplifiedSilhouette(data, centroids, assign)
}

// DaviesBouldin computes the Davies-Bouldin index (lower is better).
func DaviesBouldin(data, centroids *Matrix, assign []int32) float64 {
	return metrics.DaviesBouldin(data, centroids, assign)
}

// AdjustedRand computes the adjusted Rand index between two labelings.
func AdjustedRand(a, b []int32) (float64, error) { return metrics.AdjustedRand(a, b) }

// NMI computes normalised mutual information between two labelings.
func NMI(a, b []int32) (float64, error) { return metrics.NMI(a, b) }

// Generate materialises a synthetic dataset.
func Generate(s Spec) *Matrix { return workload.Generate(s) }

// GenerateLabeled materialises a dataset with its generating labels
// (nil for the uniform kinds), for external-index evaluation.
func GenerateLabeled(s Spec) (*Matrix, []int32) { return workload.GenerateLabeled(s) }

// QueryStream draws endless query traffic matching a dataset spec (the
// serving layer's load generator).
type QueryStream = workload.QueryStream

// NewQueryStream builds a deterministic query stream for the spec.
func NewQueryStream(s Spec, seed int64) *QueryStream { return workload.NewQueryStream(s, seed) }

// LoadMatrix reads a matrix from the binary on-disk format.
func LoadMatrix(path string) (*Matrix, error) { return matrix.LoadFile(path) }

// SaveMatrix writes a matrix in the binary on-disk format.
func SaveMatrix(m *Matrix, path string) error { return m.SaveFile(path) }

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.NewDense(rows, cols) }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) { return matrix.FromRows(rows) }

// DefaultTopology mirrors the paper's evaluation machine (4×12 cores).
func DefaultTopology() Topology { return numa.DefaultTopology() }

// DefaultCostModel returns the simulation calibration constants.
func DefaultCostModel() CostModel { return simclock.DefaultCostModel() }

// SSE computes the k-means objective of centroids against data.
func SSE(data, centroids *Matrix) float64 { return workload.SSE(data, centroids) }
