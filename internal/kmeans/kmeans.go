// Package kmeans implements the paper's core contribution: ||Lloyd's —
// a re-parallelised Lloyd's algorithm that merges the assignment and
// update phases using per-thread centroid accumulators and a single
// barrier per iteration (Algorithm 1) — together with the minimal
// triangle inequality (MTI) pruning scheme, full Elkan TI for
// comparison, NUMA-aware execution, and the serial/GEMM baselines of
// Table 3.
package kmeans

import (
	"fmt"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/numa"
	"knor/internal/sched"
	"knor/internal/simclock"
)

// Prune selects the computation-pruning scheme.
type Prune int

const (
	// PruneNone computes every point-to-centroid distance (knori-).
	PruneNone Prune = iota
	// PruneMTI is the paper's minimal triangle inequality: O(n) upper
	// bounds plus an O(k²) centroid-to-centroid matrix, three clauses.
	PruneMTI
	// PruneTI is full Elkan: MTI plus the O(nk) lower-bound matrix.
	PruneTI
	// PruneYinyang is Yinyang k-means' group filtering: O(nt) lower
	// bounds with t ≈ k/10 groups (the related-work competitor).
	PruneYinyang
)

// String implements fmt.Stringer.
func (p Prune) String() string {
	switch p {
	case PruneNone:
		return "none"
	case PruneMTI:
		return "mti"
	case PruneTI:
		return "ti"
	case PruneYinyang:
		return "yinyang"
	default:
		return fmt.Sprintf("Prune(%d)", int(p))
	}
}

// Init selects the centroid initialisation method.
type Init int

const (
	// InitForgy picks k distinct random rows as centroids.
	InitForgy Init = iota
	// InitRandomPartition assigns rows to random clusters and averages.
	InitRandomPartition
	// InitKMeansPP is k-means++ (D² sampling).
	InitKMeansPP
	// InitGiven uses Config.Centroids as provided.
	InitGiven
)

// String implements fmt.Stringer.
func (i Init) String() string {
	switch i {
	case InitForgy:
		return "forgy"
	case InitRandomPartition:
		return "random-partition"
	case InitKMeansPP:
		return "kmeans++"
	case InitGiven:
		return "given"
	default:
		return fmt.Sprintf("Init(%d)", int(i))
	}
}

// Config controls a k-means run.
type Config struct {
	K        int
	MaxIters int
	// Tol stops when total centroid movement (sum of per-centroid
	// Euclidean drift) falls at or below it. Zero means exact
	// convergence (no row changes membership).
	Tol float64

	Init      Init
	Centroids *matrix.Dense // for InitGiven
	Seed      int64

	Prune Prune
	// Spherical normalises input rows and renormalises centroids after
	// each update, yielding spherical k-means (cosine similarity).
	Spherical bool

	Threads  int
	TaskSize int
	Sched    sched.Policy

	// Topo/Placement/Model configure the simulated NUMA machine. A zero
	// Topo means "single node with Threads cores" (no NUMA effects).
	Topo      numa.Topology
	Placement numa.PlacementPolicy
	Model     simclock.CostModel
	// OblividousThreads, when true, ignores thread-to-node binding:
	// every task is treated as running on a random node (the paper's
	// NUMA-oblivious baseline relies on the OS scheduler).
	NUMAOblivious bool
}

// WithDefaults returns a validated copy of the config with defaults
// filled in for a dataset of n rows. Exposed for the SEM and
// distributed engines, which embed this config.
func (c Config) WithDefaults(n int) (Config, error) { return c.withDefaults(n) }

// withDefaults returns a validated copy with defaults filled in.
func (c Config) withDefaults(n int) (Config, error) {
	if c.K <= 0 {
		return c, fmt.Errorf("kmeans: K must be positive, got %d", c.K)
	}
	if n < c.K {
		return c, fmt.Errorf("kmeans: n=%d < k=%d", n, c.K)
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 100
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.TaskSize <= 0 {
		c.TaskSize = sched.DefaultTaskSize
	}
	if c.Topo.Nodes == 0 {
		c.Topo = numa.Topology{Nodes: 1, CoresPerNode: c.Threads}
	}
	if err := c.Topo.Validate(); err != nil {
		return c, err
	}
	if c.Model == (simclock.CostModel{}) {
		c.Model = simclock.DefaultCostModel()
	}
	if c.Init == InitGiven {
		if c.Centroids == nil || c.Centroids.Rows() != c.K {
			return c, fmt.Errorf("kmeans: InitGiven requires %d centroids", c.K)
		}
	}
	return c, nil
}

// IterStats records one iteration's behaviour. Byte counters are
// meaningful for SEM runs; in-memory runs fill the compute fields.
type IterStats struct {
	Iter       int
	SimSeconds float64 // simulated wall time of the iteration
	// DistCalcs counts exact distance computations. Iteration 0 of an
	// in-memory k-means++ run without TI or Yinyang takes each row's
	// nearest centroid from the seeding's distances, and still counts
	// the k per row an unpruned scan computes: the counter, and the
	// simulated time charged for it, match the serial oracle's.
	DistCalcs    uint64
	PrunedC1     uint64  // rows skipped entirely (clause 1)
	PrunedC2     uint64  // candidate distances skipped (clause 2)
	PrunedC3     uint64  // candidate distances skipped post-tighten (clause 3)
	RowsChanged  int     // rows that switched membership
	ActiveRows   int     // rows whose data had to be touched
	BytesWanted  uint64  // row bytes the algorithm asked for
	BytesRead    uint64  // bytes actually moved (SEM: from SSD)
	RowCacheHits uint64  // SEM row-cache hits
	Drift        float64 // total centroid movement
}

// Result of a k-means run.
type Result struct {
	Centroids  *matrix.Dense
	Assign     []int32
	Sizes      []int // cluster cardinalities
	Iters      int
	Converged  bool
	SSE        float64
	SimSeconds float64 // total simulated time
	PerIter    []IterStats
	// MemoryBytes estimates the algorithm-state footprint (excludes the
	// nd data matrix): per-thread centroids, bounds, assignment. Used
	// by the Table 1 / Figure 8c reproduction.
	MemoryBytes uint64
}

// SSEOf computes the k-means objective for an assignment. The per-row
// squared distances are computed at the data's element type; the sum is
// accumulated in float64 at every width.
func SSEOf[T blas.Float](data, centroids *matrix.Mat[T], assign []int32) float64 {
	var sse float64
	for i := 0; i < data.Rows(); i++ {
		sse += float64(matrix.SqDist(data.Row(i), centroids.Row(int(assign[i]))))
	}
	return sse
}

// StateBytes returns the asymptotic-memory-model byte count for the
// float64 routine described (Table 1): per-thread centroid copies Tkd,
// bounds state for MTI/TI, and the assignment vector.
func StateBytes(n, d, k, threads int, prune Prune) uint64 {
	return stateBytesElem(n, d, k, threads, prune, 8)
}

// stateBytesElem is StateBytes for an arbitrary element size (the
// float32 engines carry half the float state per entry).
func stateBytesElem(n, d, k, threads int, prune Prune, eb int) uint64 {
	e := uint64(eb)
	b := uint64(threads) * uint64(k) * uint64(d) * e // per-thread centroids
	b += uint64(k) * uint64(d) * e * 2               // current + next centroids
	b += uint64(n) * 4                               // assignment (int32)
	switch prune {
	case PruneMTI:
		b += uint64(n) * e             // upper bounds
		b += uint64(k) * uint64(k) * e // centroid-centroid matrix
	case PruneTI:
		b += uint64(n) * e
		b += uint64(k) * uint64(k) * e
		b += uint64(n) * uint64(k) * e // lower-bound matrix
	case PruneYinyang:
		b += uint64(n) * e                            // upper bounds
		b += uint64(n) * uint64(yinyangGroups(k)) * e // group bounds
	}
	return b
}

// nearest returns the index of and squared distance to the closest
// centroid (first index wins ties).
func nearest[T blas.Float](row []T, centroids *matrix.Mat[T]) (int, T) {
	best := inf[T]()
	bi := 0
	for c := 0; c < centroids.Rows(); c++ {
		if d := matrix.SqDist(row, centroids.Row(c)); d < best {
			best = d
			bi = c
		}
	}
	return bi, best
}
