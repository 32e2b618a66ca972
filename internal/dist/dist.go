package dist

import (
	"errors"
	"fmt"
	"sync"

	"knor/internal/blas"
	"knor/internal/cluster"
	"knor/internal/frameworks"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
	"knor/internal/numa"
	"knor/internal/sched"
)

// Mode selects the distributed execution strategy (Section 8.9).
type Mode int

const (
	// ModeKnord is the paper's design: NUMA-aware per-machine engines
	// merged by a decentralised ring allreduce.
	ModeKnord Mode = iota
	// ModeMPI is the routine MPI port: the same collectives over
	// NUMA-oblivious engines.
	ModeMPI
	// ModeMLlib emulates Spark MLlib's master-worker execution: serial
	// task dispatch, boxed rows, gather-to-driver aggregation.
	ModeMLlib
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeKnord:
		return "knord"
	case ModeMPI:
		return "mpi"
	case ModeMLlib:
		return "mllib"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls a distributed run.
type Config struct {
	// Machines is the simulated cluster size.
	Machines int
	// Mode selects the execution strategy.
	Mode Mode
	// Kmeans configures each machine's engine; Threads and Topo are per
	// machine, so the cluster runs Machines×Threads workers in total.
	Kmeans kmeans.Config
	// MLlibTaskOverhead is the serial driver-side cost of dispatching
	// one partition task (seconds), paid every iteration in ModeMLlib
	// through the master NIC. Zero disables dispatch accounting.
	MLlibTaskOverhead float64
}

// validate checks the cluster-level configuration against n data rows.
func (c Config) validate(n int) error {
	if c.Machines < 1 {
		return fmt.Errorf("dist: Machines must be >= 1, got %d", c.Machines)
	}
	if c.Machines > n {
		return fmt.Errorf("dist: Machines=%d exceeds data rows=%d", c.Machines, n)
	}
	switch c.Mode {
	case ModeKnord, ModeMPI, ModeMLlib:
	default:
		return fmt.Errorf("dist: unknown mode %d", int(c.Mode))
	}
	if c.MLlibTaskOverhead < 0 {
		return fmt.Errorf("dist: negative MLlibTaskOverhead %g", c.MLlibTaskOverhead)
	}
	return nil
}

// engineConfig maps the mode onto one machine's engine. Every machine
// starts from the identical given centroids: the per-shard engines must
// not re-run the (data-dependent) init. On spherical runs the engine
// normalises the given centroids itself, matching the oracle's
// post-init normalise, so init is passed un-normalised.
func (c Config) engineConfig(kcfg kmeans.Config, init *matrix.Dense) kmeans.Config {
	e := kcfg
	e.Init = kmeans.InitGiven
	e.Centroids = init
	switch c.Mode {
	case ModeKnord:
		// The paper's engine, as configured by the caller.
	case ModeMPI:
		// A routine MPI port runs unpinned processes over first-touch
		// allocation: the NUMA-oblivious baseline inside each machine.
		e.NUMAOblivious = true
		e.Placement = numa.PlaceSingleBank
		e.Sched = sched.FIFO
	case ModeMLlib:
		// Spark executors: JVM rows, no pinning, FIFO task queues, no
		// pruning. The boxed-row cost reuses the Figure 9 calibration so
		// single-node and distributed MLlib emulations agree.
		e.NUMAOblivious = true
		e.Placement = numa.PlaceSingleBank
		e.Sched = sched.FIFO
		e.Prune = kmeans.PruneNone
		e.Model.RowOverhead += frameworks.ProfileOf(frameworks.MLlib).RowOverhead
	}
	return e
}

// Run executes the distributed module over the simulated cluster at
// float64 and returns an aggregate Result: global assignments in input
// row order, the converged centroids, cluster-wide per-iteration stats,
// and the total memory footprint summed across machines.
func Run(data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	return RunPrecision(data, cfg, kmeans.Precision64)
}

// RunPrecision is Run at the requested precision. The simulated cluster
// is cfg.Machines goroutine ranks of the transport runner over an
// in-process netcluster.SimGroup, sharing one prepared input; the
// result is rank 0's, which carries the gathered assignments.
func RunPrecision(data *matrix.Dense, cfg Config, p kmeans.Precision) (*kmeans.Result, error) {
	if p == kmeans.Precision32 {
		return runSim[float32](data, cfg)
	}
	return runSim[float64](data, cfg)
}

func runSim[T blas.Float](data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	in, err := prepare[T](data, cfg)
	if err != nil {
		return nil, err
	}
	g := netcluster.NewSimGroup(cluster.New(cfg.Machines, in.kcfg.Model))
	defer g.Close()
	results := make([]*kmeans.Result, cfg.Machines)
	errs := make([]error, cfg.Machines)
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if results[r], errs[r] = in.run(g.Transport(r)); errs[r] != nil {
				g.Close() // unblock the ranks waiting on this one
			}
		}()
	}
	wg.Wait()
	// Report the lowest failing rank's own error; the ranks the close
	// unblocked only echo it.
	for _, err := range errs {
		if err != nil && !errors.Is(err, netcluster.ErrClosed) {
			return nil, err
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results[0], nil
}

// aggregateStats sums per-machine iteration stats into cluster totals.
func aggregateStats(stats []kmeans.IterStats) kmeans.IterStats {
	var st kmeans.IterStats
	for i := range stats {
		st.DistCalcs += stats[i].DistCalcs
		st.PrunedC1 += stats[i].PrunedC1
		st.PrunedC2 += stats[i].PrunedC2
		st.PrunedC3 += stats[i].PrunedC3
		st.RowsChanged += stats[i].RowsChanged
		st.ActiveRows += stats[i].ActiveRows
		st.BytesWanted += stats[i].BytesWanted
		st.BytesRead += stats[i].BytesRead
		st.RowCacheHits += stats[i].RowCacheHits
	}
	return st
}
