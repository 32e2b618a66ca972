package kmeans

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"knor/internal/blas"
	"knor/internal/matrix"
	"knor/internal/numa"
	"knor/internal/sched"
	"knor/internal/simclock"
)

// Run executes ||Lloyd's (Algorithm 1) — knori.
//
// Each iteration has two layers:
//
//  1. a *real* parallel compute pass: worker goroutines process row-block
//     tasks, compute assignments with the configured pruning, and
//     accumulate membership deltas into per-thread accumulators, merged
//     by a parallel tree after one barrier. This keeps wall-clock
//     benchmarks honest and the results exact.
//
//  2. a *virtual* scheduling replay: the per-task costs recorded in (1)
//     are replayed through the configured scheduler policy against
//     simulated per-worker clocks and contended NUMA links. Replaying in
//     virtual time makes the reported SimSeconds deterministic — they do
//     not depend on how the Go runtime happened to interleave the real
//     goroutines — while still expressing skew, stealing, locality and
//     link contention exactly as the policy dictates.
func Run(data *matrix.Dense, cfg Config) (*Result, error) { return RunOf(data, cfg) }

// RunOf is Run generic over the element type: the float64 instantiation
// is the oracle engine, the float32 instantiation is the
// halved-bandwidth variant selected by Precision32 (see RunPrecision).
func RunOf[T blas.Float](data *matrix.Mat[T], cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	if cfg.Spherical {
		data = data.Clone()
		normalizeRows(data)
	}
	eng := NewEngineValidated(data, cfg)
	return eng.run()
}

// taskCost captures what one task did during the compute pass, for the
// virtual replay.
type taskCost struct {
	dists   uint64
	bytes   int
	changed int
	rows    int
}

// EngineOf holds one run's state, generic over the element type; the
// distributed module runs one engine per machine.
type EngineOf[T blas.Float] struct {
	data *matrix.Mat[T]
	cfg  Config

	n, d, k int
	cents   *matrix.Mat[T]
	ps      *PruneStateOf[T]
	gsum    *AccumOf[T]   // persistent global sums
	deltas  []*AccumOf[T] // per-thread membership deltas
	group   *simclock.Group
	machine *numa.Machine
	place   *numa.Placement
	sc      sched.Scheduler
	tasks   []sched.Task
	costs   []taskCost
	// seeded is the k-means++ seeding's nearest seeds, which the first
	// compute pass applies instead of scanning all k centroids; nil
	// after that pass and for runs that do not seed that way
	// (seedsAssign).
	seeded *seeding[T]

	// baseClock lets an enclosing simulation (knord) start this
	// machine's clocks at a given simulated time.
	baseClock float64
}

// Engine is the float64 engine, bit-identical with the pre-generic
// implementation.
type Engine = EngineOf[float64]

func NewEngineValidated[T blas.Float](data *matrix.Mat[T], cfg Config) *EngineOf[T] {
	n, d := data.Rows(), data.Cols()
	e := &EngineOf[T]{data: data, cfg: cfg, n: n, d: d, k: cfg.K}
	if seedsAssign(cfg) {
		e.seeded = &seeding[T]{near: make([]int32, n)}
		e.cents, e.seeded.d2 = initKMeansPP(data, cfg.K, cfg.Seed, e.seeded.near)
	} else {
		e.cents = initCentroids(data, cfg)
	}
	if cfg.Spherical {
		normalizeRows(e.cents)
	}
	e.ps = NewPruneStateOf[T](cfg.Prune, n, cfg.K)
	e.gsum = NewAccumOf[T](cfg.K, d)
	e.deltas = make([]*AccumOf[T], cfg.Threads)
	for i := range e.deltas {
		e.deltas[i] = NewAccumOf[T](cfg.K, d)
	}
	e.group = simclock.NewGroup(cfg.Threads, cfg.Model)
	e.machine = numa.NewMachine(cfg.Topo, cfg.Model)
	e.place = numa.NewPlacement(cfg.Topo, cfg.Placement, n, cfg.TaskSize, cfg.Seed)
	e.sc = sched.New(cfg.Sched, cfg.Threads, e.workerNode)
	e.tasks = sched.MakeTasks(n, cfg.TaskSize, e.place.NodeOfRow)
	e.costs = make([]taskCost, len(e.tasks))
	return e
}

func (e *EngineOf[T]) workerNode(w int) int {
	return e.cfg.Topo.NodeOfThread(w, e.cfg.Threads)
}

func (e *EngineOf[T]) run() (*Result, error) {
	res := &Result{}
	e.group.ResetAll(e.baseClock)
	for iter := 0; iter < e.cfg.MaxIters; iter++ {
		st, changed, drift := e.Iterate(iter)
		res.PerIter = append(res.PerIter, st)
		res.Iters = iter + 1
		if iter > 0 && (changed == 0 || drift <= e.cfg.Tol) {
			res.Converged = true
			break
		}
	}
	e.finish(res)
	return res, nil
}

func (e *EngineOf[T]) finish(res *Result) {
	res.Centroids = matrix.ToFloat64(e.cents)
	res.Assign = e.ps.Assign
	res.Sizes = sizesOf(e.ps.Assign, e.k)
	res.SSE = SSEOf(e.data, e.cents, e.ps.Assign)
	res.SimSeconds = e.group.Max() - e.baseClock
	// In-memory runs hold the full n×d data plus algorithm state; both
	// scale with the element size.
	eb := blas.ElemBytes[T]()
	res.MemoryBytes = uint64(e.n)*uint64(e.d)*uint64(eb) +
		stateBytesElem(e.n, e.d, e.k, e.cfg.Threads, e.cfg.Prune, eb)
}

// Iterate performs one full iteration: the local super-phase followed
// by the (machine-local) global apply. It returns the iteration stats,
// the number of rows that changed membership, and total drift.
func (e *EngineOf[T]) Iterate(iter int) (IterStats, int, float64) {
	startT := e.group.Clock(0).Now()
	st, local := e.LocalPhase(iter)
	drift := e.ApplyGlobal(local)
	st.Drift = drift
	st.SimSeconds = e.group.Max() - startT
	return st, st.RowsChanged, drift
}

// LocalPhase runs the super-phase on this machine's shard: assignment
// with pruning, per-thread delta accumulation, the single barrier, the
// parallel delta merge, and the virtual scheduling replay. It returns
// the iteration stats and the machine's merged delta accumulator —
// which knord allreduces across machines before ApplyGlobal.
func (e *EngineOf[T]) LocalPhase(iter int) (IterStats, *AccumOf[T]) {
	model := e.cfg.Model
	e.ps.UpdateCentroidDists(e.cents)

	st := e.computePass(iter)
	st.Iter = iter
	merged := MergeTreeOf(e.deltas)

	// Virtual replay of the iteration through the scheduler.
	e.replay(iter)

	// Worker epilogue: centroid-distance refresh (O(k²d)) and the merge
	// tree (log T levels of 2kd flops each), after the single barrier.
	ccCost := float64(e.k*(e.k-1)/2) * model.DistanceCost(e.d)
	levels := 0
	if e.cfg.Threads > 1 {
		levels = int(math.Ceil(math.Log2(float64(e.cfg.Threads))))
	}
	mergeCost := float64(levels) * float64(2*e.k*e.d) * model.FlopTime
	e.group.Barrier()
	for w := 0; w < e.cfg.Threads; w++ {
		e.group.Clock(w).Advance(ccCost + mergeCost)
	}
	return st, merged
}

// ApplyGlobal folds a (possibly allreduced) delta accumulator into the
// persistent global sums, produces the next centroids, computes drift
// and loosens the pruning bounds. Returns total drift.
func (e *EngineOf[T]) ApplyGlobal(delta *AccumOf[T]) float64 {
	e.gsum.Merge(delta)
	next := e.gsum.Centroids(e.cents)
	if e.cfg.Spherical {
		normalizeRows(next)
	}
	drift := e.ps.ComputeDrift(e.cents, next)
	if e.cfg.Prune != PruneNone {
		e.parallelLoosen()
		perRow := 1.0
		switch e.cfg.Prune {
		case PruneTI:
			perRow = float64(e.k)
		case PruneYinyang:
			perRow = float64(yinyangGroups(e.k))
		}
		loosenCost := float64(e.n) * perRow * e.cfg.Model.FlopTime / float64(e.cfg.Threads)
		for w := 0; w < e.cfg.Threads; w++ {
			e.group.Clock(w).Advance(loosenCost)
		}
	}
	e.cents = next
	return drift
}

// computePass runs the real parallel assignment pass. Tasks are claimed
// off a shared atomic cursor (order is irrelevant for correctness: row
// decisions are independent given the iteration's centroids). The
// first pass of a seedsAssign run takes each row's nearest centroid
// from the seeding; a row whose D² is NaN is scanned, since the
// seeding kept seed 0 where the scan's argmin skips a NaN distance.
func (e *EngineOf[T]) computePass(iter int) IterStats {
	seeded := e.seeded
	e.seeded = nil
	var cursor int64
	outs := make([]Tally, e.cfg.Threads)
	rowBytes := e.d * blas.ElemBytes[T]()
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			dist := make([]T, e.k)
			delta := e.deltas[w]
			delta.Reset()
			for {
				ti := int(atomic.AddInt64(&cursor, 1)) - 1
				if ti >= len(e.tasks) {
					return
				}
				task := e.tasks[ti]
				before := o.Ctr
				changedBefore := o.Changed
				bytes := 0
				for i := task.Lo; i < task.Hi; i++ {
					if iter > 0 && !e.ps.NeedsRow(i) {
						o.Ctr.C1++
						continue
					}
					bytes += rowBytes
					row := e.data.Row(i)
					old := e.ps.Assign[i]
					var changed bool
					if seeded != nil && seeded.d2[i] == seeded.d2[i] {
						changed = e.ps.assignSeeded(i, seeded.near[i], seeded.d2[i], &o.Ctr)
					} else {
						changed = e.ps.AssignRow(i, row, e.cents, &o.Ctr, dist)
					}
					if changed {
						o.Changed++
						if old >= 0 {
							delta.Remove(row, int(old))
						}
						delta.Add(row, int(e.ps.Assign[i]))
					}
				}
				e.costs[ti] = taskCost{
					dists:   o.Ctr.DistCalcs - before.DistCalcs,
					bytes:   bytes,
					changed: o.Changed - changedBefore,
					rows:    task.Rows(),
				}
			}
		}(w)
	}
	wg.Wait()

	st := TallyStats(outs, e.n)
	for i := range e.costs {
		st.BytesWanted += uint64(e.costs[i].bytes)
	}
	st.BytesRead = st.BytesWanted // in-memory: wanted == read
	return st
}

// replay simulates the iteration's task execution under the configured
// scheduler policy in virtual time: the globally earliest worker pulls
// its next task, pays the memory transfer through the (possibly
// contended) NUMA links, then the compute cost. Deterministic given the
// config.
func (e *EngineOf[T]) replay(iter int) {
	model := e.cfg.Model
	e.sc.Reset(e.tasks)
	nw := e.cfg.Threads
	done := make([]bool, nw)
	remaining := nw
	var rng *rand.Rand
	if e.cfg.NUMAOblivious {
		rng = rand.New(rand.NewSource(e.cfg.Seed + int64(iter)))
	}
	// Beyond the physical core count, extra threads share cores via
	// SMT; simultaneous multithreading yields ~25% extra throughput per
	// core, so per-thread compute slows by T/(cores*1.25) — the paper's
	// "speedup degrades slightly at 64 cores" on a 48-core box.
	computeScale := 1.0
	if cores := e.cfg.Topo.TotalCores(); nw > cores {
		computeScale = float64(nw) / (float64(cores) * 1.25)
	}
	for remaining > 0 {
		// Earliest active worker (lowest id breaks ties).
		w := -1
		for i := 0; i < nw; i++ {
			if done[i] {
				continue
			}
			if w < 0 || e.group.Clock(i).Now() < e.group.Clock(w).Now() {
				w = i
			}
		}
		task, ok := e.sc.Next(w)
		if !ok {
			done[w] = true
			remaining--
			continue
		}
		at := e.workerNode(w)
		if rng != nil {
			// Unbound thread: the OS may run it on any node.
			at = rng.Intn(e.cfg.Topo.Nodes)
		}
		clock := e.group.Clock(w)
		cost := e.costs[task.ID]
		// The streamed row reads overlap the distance kernel (prefetch
		// hides transfer behind compute); the task ends at whichever
		// finishes last. Remote execution additionally slows the
		// compute itself: latency-bound accesses can't be prefetched.
		scale := computeScale
		if at != task.Node && model.RemoteComputePenalty > 1 {
			scale *= model.RemoteComputePenalty
		}
		ioEnd := e.machine.TouchAsync(clock.Now(), at, task.Node, cost.bytes)
		clock.Advance(scale * (float64(cost.dists)*model.DistanceCost(e.d) +
			float64(cost.rows)*model.RowOverhead +
			float64(cost.changed)*float64(2*e.d)*model.FlopTime))
		clock.AdvanceTo(ioEnd)
	}
}

// parallelLoosen applies post-update bound adjustments across threads.
func (e *EngineOf[T]) parallelLoosen() {
	var wg sync.WaitGroup
	stripe := (e.n + e.cfg.Threads - 1) / e.cfg.Threads
	for w := 0; w < e.cfg.Threads; w++ {
		lo := w * stripe
		if lo >= e.n {
			break
		}
		hi := lo + stripe
		if hi > e.n {
			hi = e.n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.ps.LoosenRows(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Centroids exposes the current centroids (used by knord between
// allreduce steps).
func (e *EngineOf[T]) Centroids() *matrix.Mat[T] { return e.cents }

// NewEngine validates cfg against data and builds an engine for
// drivers that run their own iteration loop (knord, benches).
func NewEngine[T blas.Float](data *matrix.Mat[T], cfg Config) (*EngineOf[T], error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	if cfg.Spherical {
		data = data.Clone()
		normalizeRows(data)
	}
	return NewEngineValidated(data, cfg), nil
}

// Group exposes the engine's worker clocks so an enclosing simulation
// (the cluster network) can synchronise machine time around
// collectives.
func (e *EngineOf[T]) Group() *simclock.Group { return e.group }

// Assign exposes the current assignment vector (shard-local indices).
func (e *EngineOf[T]) Assign() []int32 { return e.ps.Assign }

// N returns the engine's shard size in rows.
func (e *EngineOf[T]) N() int { return e.n }
