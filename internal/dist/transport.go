package dist

import (
	"fmt"
	"math"

	"knor/internal/blas"
	"knor/internal/cluster"
	"knor/internal/frameworks"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/netcluster"
)

// The runner: one rank's share of the distributed iteration over a
// netcluster.Transport. It is knord's only iteration loop — the M
// "machines" are real OS processes (RunTransport over TCP) or M
// goroutines over a netcluster.SimGroup (Run, RunPrecision).
//
// Parity discipline: every rank computes the SAME global accumulator by
// allgathering all M per-rank deltas and folding them in fixed rank
// order 0..M-1, then applies it to identical centroids. Because each
// rank also holds every rank's iteration stats, the convergence
// decision is the same expression over the same values everywhere: the
// ranks never need a verdict broadcast and can never disagree about
// when to stop.
//
// Simulated time is the paper's modelled collective, not the bytes the
// allgather happens to move: each rank charges its own replica of the
// simulated interconnect (collectives.go) with identical inputs, so the
// replicas agree without extra rounds. The inputs are every rank's
// engine clock after LocalPhase and after the previous ApplyGlobal,
// which ride in the iteration's allgather block.

// RunTransport runs this rank's part of a distributed k-means over tr
// at the requested precision. Every rank must be given the identical
// data and cfg (the TCP bootstrap's config digest enforces this); the
// returned Result carries the converged centroids and per-iteration
// stats on every rank, and additionally the global assignments, sizes,
// SSE and complete simulated time on rank 0 (the coordinator, which
// reports; it gathers the assignments and every rank's final clock).
func RunTransport(tr netcluster.Transport, data *matrix.Dense, cfg Config, p kmeans.Precision) (*kmeans.Result, error) {
	if cfg.Machines != tr.Size() {
		return nil, fmt.Errorf("dist: cfg.Machines=%d but transport has %d ranks", cfg.Machines, tr.Size())
	}
	if p == kmeans.Precision32 {
		return runTransport[float32](tr, data, cfg)
	}
	return runTransport[float64](tr, data, cfg)
}

func runTransport[T blas.Float](tr netcluster.Transport, data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	in, err := prepare[T](data, cfg)
	if err != nil {
		return nil, err
	}
	return in.run(tr)
}

// input is a run's read-only preparation, shared by every in-process
// rank.
type input[T blas.Float] struct {
	cfg      Config
	kcfg     kmeans.Config  // validated, with defaults
	shardCfg kmeans.Config  // the mode's per-machine engine config
	data     *matrix.Mat[T] // raw rows; each engine views its shard
	full     *matrix.Mat[T] // data, normalised on spherical runs
	shards   []Shard
}

// prepare validates cfg and computes what every rank shares: the data
// at precision T, the spherical normalise and the full-data init.
func prepare[T blas.Float](data *matrix.Dense, cfg Config) (*input[T], error) {
	if data == nil || data.Rows() == 0 {
		return nil, fmt.Errorf("dist: empty dataset")
	}
	if err := cfg.validate(data.Rows()); err != nil {
		return nil, err
	}
	kcfg, err := cfg.Kmeans.WithDefaults(data.Rows())
	if err != nil {
		return nil, err
	}

	// Precision conversion happens once on the full matrix — exactly
	// where kmeans.RunPrecision does it — so every downstream value is
	// computed in T arithmetic and matches the single-process T oracle
	// bit for bit. Float64 runs use the caller's matrix as is.
	dataT, ok := any(data).(*matrix.Mat[T])
	if !ok {
		dataT = matrix.Convert[T](data)
	}
	// Spherical runs normalise a global copy exactly as the serial
	// oracle does: the init and the SSE are computed on it, while each
	// shard engine normalises its own raw rows (the identical row-wise
	// operation, so shard rows match the oracle's bit for bit).
	full := dataT
	if kcfg.Spherical {
		full = dataT.Clone()
		matrix.NormalizeRows(full)
	}
	// Initial centroids come from the FULL dataset — the one global
	// step of the paper's design. Sharding the init instead would make
	// the result depend on the machine count.
	init := matrix.ToFloat64(kmeans.InitCentroidsOf(full, kcfg)) // exact T→float64→T round-trip
	return &input[T]{
		cfg:      cfg,
		kcfg:     kcfg,
		shardCfg: cfg.engineConfig(kcfg, init),
		data:     dataT,
		full:     full,
		shards:   Partition(full.Rows(), cfg.Machines),
	}, nil
}

// run drives rank tr.Rank() through the decentralised iteration: the
// local super-phase, one allgather, the identical global apply.
func (in *input[T]) run(tr netcluster.Transport) (*kmeans.Result, error) {
	d, k := in.full.Cols(), in.kcfg.K
	M, rank := tr.Size(), tr.Rank()
	sh := in.shards[rank]
	// The engine gets this rank's view of the RAW (un-normalised) rows
	// and normalises them itself on spherical runs.
	eng, err := kmeans.NewEngine(ViewOf(sh, in.data), in.shardCfg)
	if err != nil {
		return nil, fmt.Errorf("dist: machine %d (rows %d..%d): %w", rank, sh.Lo, sh.Hi, err)
	}

	elem := byte(blas.ElemBytes[T]())
	payload := kmeans.NewAccumOf[T](k, d).SerializedBytes()
	net := cluster.New(M, in.kcfg.Model)
	tasks := 0
	for _, s := range in.shards {
		tasks += s.Tasks(in.kcfg.TaskSize)
	}
	dispatch := in.cfg.Mode == ModeMLlib && in.cfg.MLlibTaskOverhead > 0

	res := &kmeans.Result{}
	prevEnd, applyEnd := 0.0, 0.0
	statsAll := make([]kmeans.IterStats, M)
	for iter := 0; iter < in.kcfg.MaxIters; iter++ {
		// MLlib's driver serially ships every partition task before the
		// executors can start computing (Figure 12's per-task cost).
		// MLlib does not prune, so ApplyGlobal charged no time and every
		// engine clock still equals its replica clock: the dispatch
		// needs no clock exchange first.
		if dispatch {
			net.MasterDispatch(0, tasks, in.cfg.MLlibTaskOverhead)
			eng.Group().ResetAll(net.Clock(rank).Now())
		}

		st, delta := eng.LocalPhase(iter)
		mine := encodeBlock(delta, st, eng.Group().Max(), applyEnd)
		blocks, err := netcluster.Allgather(tr, netcluster.FrameAccum, elem, uint32(iter), mine)
		if err != nil {
			return nil, fmt.Errorf("dist: iteration %d: %w", iter, err)
		}
		// Fixed-rank-order fold — the parity-critical line. Every rank
		// decodes every block (its own included, so all M inputs take
		// the identical encode→decode path) and merges 0..M-1. The
		// collective starts each machine when its local phase ended.
		global := kmeans.NewAccumOf[T](k, d)
		prevIterEnd := 0.0
		for m := 0; m < M; m++ {
			b, err := decodeBlock[T](blocks[m], k, d)
			if err != nil {
				return nil, fmt.Errorf("dist: iteration %d, block from rank %d: %w", iter, m, err)
			}
			global.Merge(b.delta)
			statsAll[m] = b.stats
			net.Clock(m).AdvanceTo(b.localEnd)
			prevIterEnd = max(prevIterEnd, b.applyEnd)
		}
		if iter > 0 {
			prevEnd = closeIter(res, prevIterEnd, prevEnd)
		}
		collective(net, in.cfg.Mode, payload)
		// Identical apply everywhere: same delta into the same sums gives
		// every machine bit-identical next centroids.
		eng.Group().ResetAll(net.Clock(rank).Now())
		drift := eng.ApplyGlobal(global)
		applyEnd = eng.Group().Max()

		agg := aggregateStats(statsAll)
		agg.Iter = iter
		agg.Drift = drift
		res.PerIter = append(res.PerIter, agg)
		res.Iters = iter + 1
		// Identical inputs everywhere → identical verdict everywhere.
		if iter > 0 && (agg.RowsChanged == 0 || drift <= in.kcfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Centroids = matrix.ToFloat64(eng.Centroids())
	res.MemoryBytes = in.memoryBytes(payload)

	// Rank 0 gathers the assignments and computes sizes and the SSE over
	// the full (normalised) data. The other ranks close the last
	// iteration with their own clock.
	assign, end, err := in.gather(tr, eng.Assign(), applyEnd)
	if err != nil {
		return nil, err
	}
	if assign != nil {
		res.Assign = assign
		res.Sizes = make([]int, k)
		for _, a := range assign {
			if a >= 0 {
				res.Sizes[a]++
			}
		}
		res.SSE = kmeans.SSEOf(in.full, eng.Centroids(), assign)
	}
	if len(res.PerIter) > 0 {
		prevEnd = closeIter(res, end, prevEnd)
	}
	res.SimSeconds = prevEnd
	return res, nil
}

// gatherRows caps the assignment rows one gather frame carries, so
// every frame stays under netcluster.MaxFrameBytes.
var gatherRows = (netcluster.MaxFrameBytes - 8) / 4

// gather collects every rank's assignments and final clock at rank 0,
// which gets the global assignment vector in shard order and the latest
// clock; the other ranks get nil and their own clock. Shards travel in
// chunks of gatherRows rows; shard 0 is the largest, so it sets the
// round count.
func (in *input[T]) gather(tr netcluster.Transport, own []int32, clock float64) ([]int32, float64, error) {
	var assign []int32
	if tr.Rank() == 0 {
		assign = make([]int32, in.full.Rows())
	}
	end := clock
	for lo := 0; lo < in.shards[0].Rows(); lo += gatherRows {
		span := func(rows int) (int, int) { return min(lo, rows), min(lo+gatherRows, rows) }
		a, b := span(len(own))
		mine := netcluster.AppendInt32s(netcluster.AppendUint64(nil, math.Float64bits(clock)), own[a:b])
		blocks, err := netcluster.Gather(tr, 0, netcluster.FrameGather, 0, uint32(lo/gatherRows), mine)
		if err != nil {
			return nil, 0, fmt.Errorf("dist: assignment gather: %w", err)
		}
		if assign == nil {
			continue
		}
		for m, sh := range in.shards {
			a, b := span(sh.Rows())
			if got, want := len(blocks[m]), 8+(b-a)*4; got != want {
				return nil, 0, fmt.Errorf("dist: rank %d gathered %d result bytes, want %d", m, got, want)
			}
			bits, _ := netcluster.Uint64At(blocks[m], 0)
			end = max(end, math.Float64frombits(bits))
			if _, err := netcluster.Int32sAt(blocks[m], 8, b-a, assign[sh.Lo+a:sh.Lo+b]); err != nil {
				return nil, 0, fmt.Errorf("dist: rank %d assignments: %w", m, err)
			}
		}
	}
	return assign, end, nil
}

// closeIter records the simulated time of the last open iteration,
// which ended when the slowest machine finished its apply at end.
func closeIter(res *kmeans.Result, end, prevEnd float64) float64 {
	res.PerIter[len(res.PerIter)-1].SimSeconds = end - prevEnd
	return end
}

// memoryBytes is the aggregate cluster footprint: every machine holds
// its shard, its engine state, and the two collective buffers (send +
// receive). MLlib additionally inflates the data representation by the
// Figure 9 memory factor.
func (in *input[T]) memoryBytes(payload int) uint64 {
	d := in.full.Cols()
	dataFactor := 1.0
	if in.cfg.Mode == ModeMLlib {
		dataFactor = frameworks.ProfileOf(frameworks.MLlib).MemFactor
	}
	elem := float64(blas.ElemBytes[T]())
	var total uint64
	for _, sh := range in.shards {
		total += uint64(float64(sh.Rows()) * float64(d) * elem * dataFactor)
		total += kmeans.StateBytes(sh.Rows(), d, in.kcfg.K, in.shardCfg.Threads, in.shardCfg.Prune)
		total += 2 * uint64(payload)
	}
	return total
}

// block is one rank's contribution to an iteration's allgather.
type block[T blas.Float] struct {
	delta *kmeans.AccumOf[T]
	stats kmeans.IterStats
	// localEnd and applyEnd are the rank's engine clock after this
	// iteration's LocalPhase and after the previous ApplyGlobal.
	localEnd, applyEnd float64
}

// encodeBlock serialises one rank's iteration contribution: the delta
// accumulator (counts then exact sum bits), the stat counters the
// cluster aggregates, and the two engine clocks.
func encodeBlock[T blas.Float](a *kmeans.AccumOf[T], st kmeans.IterStats, localEnd, applyEnd float64) []byte {
	b := netcluster.AppendUint32(nil, uint32(a.K))
	b = netcluster.AppendUint32(b, uint32(a.D))
	b = netcluster.AppendInt64s(b, a.Count)
	b = netcluster.AppendFloats(b, a.Sum)
	for _, u := range []uint64{
		st.DistCalcs, st.PrunedC1, st.PrunedC2, st.PrunedC3,
		uint64(st.RowsChanged), uint64(st.ActiveRows),
		st.BytesWanted, st.BytesRead, st.RowCacheHits,
		math.Float64bits(localEnd), math.Float64bits(applyEnd),
	} {
		b = netcluster.AppendUint64(b, u)
	}
	return b
}

// decodeBlock is encodeBlock's inverse, validating the k×d shape
// against this rank's configuration (a shape disagreement means the
// cluster is running mixed configs).
func decodeBlock[T blas.Float](b []byte, k, d int) (block[T], error) {
	var out block[T]
	gk, err := netcluster.Uint32At(b, 0)
	if err != nil {
		return out, err
	}
	gd, err := netcluster.Uint32At(b, 4)
	if err != nil {
		return out, err
	}
	if int(gk) != k || int(gd) != d {
		return out, fmt.Errorf("dist: accumulator shape %dx%d, this rank runs %dx%d", gk, gd, k, d)
	}
	a := kmeans.NewAccumOf[T](k, d)
	off, err := netcluster.Int64sAt(b, 8, k, a.Count)
	if err != nil {
		return out, err
	}
	off, err = netcluster.FloatsAt(b, off, k*d, a.Sum)
	if err != nil {
		return out, err
	}
	us := make([]uint64, 11)
	for i := range us {
		if us[i], err = netcluster.Uint64At(b, off+8*i); err != nil {
			return out, err
		}
	}
	st := &out.stats
	st.DistCalcs, st.PrunedC1, st.PrunedC2, st.PrunedC3 = us[0], us[1], us[2], us[3]
	st.RowsChanged, st.ActiveRows = int(us[4]), int(us[5])
	st.BytesWanted, st.BytesRead, st.RowCacheHits = us[6], us[7], us[8]
	out.delta = a
	out.localEnd, out.applyEnd = math.Float64frombits(us[9]), math.Float64frombits(us[10])
	return out, nil
}
