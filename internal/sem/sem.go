package sem

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/simclock"
	"knor/internal/ssd"
	"knor/internal/store"
)

// Config controls a knors run: the embedded k-means algorithm config
// plus the storage stack.
type Config struct {
	Kmeans kmeans.Config

	// Devices is the SSD array width (the paper's machine has 24).
	// Simulated backend only.
	Devices int
	// PageSize is the minimum read unit; 0 means ssd.DefaultPageSize.
	PageSize int
	// PageCacheBytes sizes the page cache (the SAFS cache on the
	// simulated backend, the store.File cache on the real one).
	PageCacheBytes int
	// RowCacheBytes sizes the partitioned row cache; 0 disables it
	// (knors- when pruning is on, knors-- when pruning is off too).
	// On the real file backend the row cache pins row *data*, so this
	// is a genuine memory budget there.
	RowCacheBytes int
	// ICache is the row-cache refresh interval; 0 means DefaultICache.
	ICache int
	// PrefetchWorkers sizes the file backend's asynchronous fetch pool
	// (0 disables prefetching). Ignored by the simulated backend.
	PrefetchWorkers int

	// CheckpointPath, when non-empty, enables lightweight checkpointing
	// every CheckpointEvery iterations (FlashGraph-style in-memory
	// failure tolerance).
	CheckpointPath  string
	CheckpointEvery int
}

func (c Config) withDefaults(n int) (Config, error) {
	var err error
	c.Kmeans, err = c.Kmeans.WithDefaults(n)
	if err != nil {
		return c, err
	}
	if c.Devices <= 0 {
		c.Devices = 24
	}
	if c.PageSize <= 0 {
		c.PageSize = ssd.DefaultPageSize
	}
	if c.PageCacheBytes <= 0 {
		c.PageCacheBytes = 1 << 30
	}
	if c.ICache <= 0 {
		c.ICache = DefaultICache
	}
	return c, nil
}

// Engine is the knors driver. Row data lives on the storage backend —
// the simulated SSD array (data passed to New is treated as resident
// there) or a real store file — and only O(n) algorithm state plus the
// caches count as memory.
type Engine struct {
	src RowSource
	// data is non-nil only on the simulated backend, where the matrix
	// is resident anyway; the oracle-identical init/SSE paths use it
	// directly. The file backend streams both.
	data *matrix.Dense
	cfg  Config

	n, d, k int
	cents   *matrix.Dense
	ps      *kmeans.PruneState
	gsum    *kmeans.Accum
	deltas  []*kmeans.Accum
	group   *simclock.Group
	safs    *ssd.SAFS // simulated backend only
	rc      *RowCache // nil when disabled

	tasks     []semTask
	dists     [][]float64 // one row of k distances per compute worker
	window    int         // read-ahead window, rows (file backend)
	iter      int
	converged bool
	perIter   []kmeans.IterStats
	wall      float64   // accumulated wall-clock seconds (real backend)
	owned     io.Closer // backend to close with the engine (NewFromFile)
}

type semTask struct {
	lo, hi int
	worker int
	// active marks the rows that needed computation, bit i-lo for row
	// i. The compute pass sets it on row-cache refresh iterations only,
	// for fillRowCache; nil without a row cache.
	active []uint64
	// per-iteration scratch, filled by the compute pass:
	miss    []int32 // active rows not served by the row cache (simulated backend's replay only)
	dists   uint64
	changed int
}

// New builds a knors engine over an in-memory matrix fronted by the
// simulated SSD array.
func New(data *matrix.Dense, cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults(data.Rows())
	if err != nil {
		return nil, err
	}
	if cfg.Kmeans.Spherical {
		data = data.Clone()
		matrix.NormalizeRows(data)
	}
	array := ssd.NewArray(cfg.Devices, cfg.PageSize, cfg.Kmeans.Model)
	safs := ssd.NewSAFS(array, cfg.PageCacheBytes, data.Cols()*8)
	e, err := newEngine(&simSource{data: data, safs: safs}, data, cfg)
	if err != nil {
		return nil, err
	}
	e.safs = safs
	return e, nil
}

// NewFromStore builds a knors engine streaming rows from an opened
// store file. The caller keeps ownership of f.
func NewFromStore(f *store.File, cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults(f.Rows())
	if err != nil {
		return nil, err
	}
	return newEngine(fileSource{f}, nil, cfg)
}

// NewFromFile opens path as a store file (sizing its page cache and
// prefetch pool from the config) and builds an engine that owns it;
// Close releases the file. The full matrix is never materialised —
// resident row data is bounded by PageCacheBytes + RowCacheBytes.
func NewFromFile(path string, cfg Config) (*Engine, error) {
	f, err := store.Open(path, store.Options{
		CacheBytes:      cfg.PageCacheBytes,
		PrefetchWorkers: cfg.PrefetchWorkers,
	})
	if err != nil {
		return nil, err
	}
	e, err := NewFromStore(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	e.owned = f
	return e, nil
}

// newEngine finishes construction over a prepared source. cfg already
// has defaults applied; data is non-nil only for the simulated path.
func newEngine(src RowSource, data *matrix.Dense, cfg Config) (*Engine, error) {
	n, d := src.Rows(), src.Cols()
	e := &Engine{src: src, data: data, cfg: cfg, n: n, d: d, k: cfg.Kmeans.K}
	if data != nil {
		e.cents = kmeans.InitCentroidsFor(data, cfg.Kmeans)
	} else {
		rows := &cursorRows{cur: e.untrackedCursor(), n: n, d: d}
		e.cents = kmeans.InitCentroidsFromRows(rows, cfg.Kmeans)
		rows.cur.Release()
		if rows.err != nil {
			return nil, fmt.Errorf("sem: init: %w", rows.err)
		}
	}
	if cfg.Kmeans.Spherical {
		matrix.NormalizeRows(e.cents)
	}
	e.ps = kmeans.NewPruneState(cfg.Kmeans.Prune, n, e.k)
	e.gsum = kmeans.NewAccum(e.k, d)
	e.deltas = make([]*kmeans.Accum, cfg.Kmeans.Threads)
	for i := range e.deltas {
		e.deltas[i] = kmeans.NewAccum(e.k, d)
	}
	e.group = simclock.NewGroup(cfg.Kmeans.Threads, cfg.Kmeans.Model)
	if cfg.RowCacheBytes > 0 {
		e.rc = NewRowCache(n, d*8, cfg.Kmeans.Threads, cfg.RowCacheBytes, cfg.ICache)
	}
	// FlashGraph partitions the matrix across threads; tasks are
	// contiguous blocks statically owned by partition threads.
	T := cfg.Kmeans.Threads
	e.window = max(1, cfg.PageCacheBytes/readAheadShare/T/src.RowBytes())
	ts := cfg.Kmeans.TaskSize
	e.dists = make([][]float64, T)
	for w := range e.dists {
		e.dists[w] = make([]float64, e.k)
	}
	for lo := 0; lo < n; lo += ts {
		hi := lo + ts
		if hi > n {
			hi = n
		}
		worker := lo * T / n
		if worker >= T {
			worker = T - 1
		}
		t := semTask{lo: lo, hi: hi, worker: worker}
		if e.rc != nil {
			t.active = make([]uint64, (hi-lo+63)/64)
		}
		e.tasks = append(e.tasks, t)
	}
	return e, nil
}

// cursor returns a tracked per-worker row reader, normalising on the
// fly when the spherical variant runs on a streaming backend (the
// simulated path normalised its resident clone up front).
func (e *Engine) cursor() RowCursor {
	c := e.src.Cursor()
	if e.cfg.Kmeans.Spherical && e.src.Real() {
		return &normCursor{inner: c, buf: make([]float64, e.d)}
	}
	return c
}

func (e *Engine) untrackedCursor() RowCursor {
	c := e.src.UntrackedCursor()
	if e.cfg.Kmeans.Spherical && e.src.Real() {
		return &normCursor{inner: c, buf: make([]float64, e.d)}
	}
	return c
}

// Run executes a fresh knors run to convergence.
func Run(data *matrix.Dense, cfg Config) (*kmeans.Result, error) {
	e, err := New(data, cfg)
	if err != nil {
		return nil, err
	}
	return e.Finish()
}

// RunFile executes a knors run streaming from a store file.
func RunFile(path string, cfg Config) (*kmeans.Result, error) {
	e, err := NewFromFile(path, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Finish()
}

// Close releases a backend owned by the engine (NewFromFile). Engines
// over caller-owned sources close nothing and return nil.
func (e *Engine) Close() error {
	if e.owned != nil {
		err := e.owned.Close()
		e.owned = nil
		return err
	}
	return nil
}

// Finish drives the engine from its current iteration to convergence
// and returns the result. It may be called after a Restore.
func (e *Engine) Finish() (*kmeans.Result, error) {
	for !e.converged && e.iter < e.cfg.Kmeans.MaxIters {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.result()
}

// Step runs exactly one iteration (exposed for checkpoint/recovery
// tests and incremental drivers).
func (e *Engine) Step() error {
	iter := e.iter
	real := e.src.Real()
	model := e.cfg.Kmeans.Model
	var t0 time.Time
	if real {
		t0 = time.Now()
	}
	startT := e.group.Clock(0).Now()
	reqBefore, readBefore := e.src.Traffic()
	var hitsBefore uint64
	refresh := false
	if e.rc != nil {
		hitsBefore = e.rc.Hits()
		if e.rc.IsRefreshIteration(iter) {
			// Flush before compute: on a refresh iteration every active
			// row goes to the device (and gets re-pinned afterwards) on
			// both backends.
			e.rc.BeginRefresh()
			refresh = true
		}
	}
	e.ps.UpdateCentroidDists(e.cents)

	st, err := e.computePass(iter, refresh)
	if err != nil {
		return err
	}
	st.Iter = iter

	merged := kmeans.MergeTree(e.deltas)
	e.gsum.Merge(merged)
	next := e.gsum.Centroids(e.cents)
	if e.cfg.Kmeans.Spherical {
		matrix.NormalizeRows(next)
	}
	drift := e.ps.ComputeDrift(e.cents, next)
	if e.cfg.Kmeans.Prune != kmeans.PruneNone {
		e.ps.LoosenRows(0, e.n)
	}
	e.cents = next
	st.Drift = drift

	if !real {
		e.replay()
		ccCost := float64(e.k*(e.k-1)/2) * model.DistanceCost(e.d)
		end := e.group.Barrier()
		for w := 0; w < e.cfg.Kmeans.Threads; w++ {
			e.group.Clock(w).Advance(ccCost)
		}
		end += ccCost
		st.SimSeconds = end - startT
	}
	if refresh {
		if err := e.fillRowCache(); err != nil {
			return err
		}
	}

	req, read := e.src.Traffic()
	st.BytesWanted = req - reqBefore
	st.BytesRead = read - readBefore
	if e.rc != nil {
		st.RowCacheHits = e.rc.Hits() - hitsBefore
	}
	if real {
		st.SimSeconds = time.Since(t0).Seconds()
		e.wall += st.SimSeconds
		telIterSeconds.Observe(st.SimSeconds)
	}
	telIterations.Inc()
	telActiveRows.Add(uint64(st.ActiveRows))
	telBytesWanted.Add(st.BytesWanted)
	telBytesRead.Add(st.BytesRead)
	telRowCacheHits.Add(st.RowCacheHits)
	telDrift.Set(drift)

	e.perIter = append(e.perIter, st)
	e.iter++
	if iter > 0 && (st.RowsChanged == 0 || drift <= e.cfg.Kmeans.Tol) {
		e.converged = true
	}
	if e.cfg.CheckpointPath != "" && e.cfg.CheckpointEvery > 0 && e.iter%e.cfg.CheckpointEvery == 0 {
		if err := e.Checkpoint(e.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("sem: checkpoint: %w", err)
		}
	}
	return nil
}

// readAheadShare sizes the file backend's read-ahead windows: one
// window of every compute thread together fills 1/readAheadShare of the
// page cache. A task's row-cache misses go to the prefetch pool one
// window at a time, two windows ahead of its row loop, so the pages
// fetched and not yet read stay under three quarters of the cache and
// the LRU evicts pages already read before pages still to be read.
const readAheadShare = 4

// computePass runs the real parallel assignment pass. Tasks are
// processed by their statically owning partition worker, in task
// order — FlashGraph's ownership model, and the property that makes
// every run bit-deterministic: each row's delta always accumulates in
// the same per-worker Accum, so the MergeTree float grouping never
// depends on goroutine scheduling and the simulated and file backends
// land on identical bits. Each worker fetches rows through its own
// cursor: free on the simulated backend (the matrix is resident),
// real page-cache reads on the file backend, where rows pinned by the
// row cache are served from memory and the remaining misses are
// prefetched a window at a time ahead of the row loop, so page fetches
// overlap compute inside the cache.
// On refresh iterations each task marks its active rows for the refill;
// on the simulated backend it lists its row-cache misses for the
// deterministic accounting pass.
func (e *Engine) computePass(iter int, refresh bool) (kmeans.IterStats, error) {
	T := e.cfg.Kmeans.Threads
	real := e.src.Real()
	outs := make([]kmeans.Tally, T)
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < T; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := e.cursor()
			defer cur.Release()
			dist := e.dists[w]
			// missed reports whether the pass reads row i from the
			// store: the row needs its distances and the row cache
			// does not serve it. Neither changes before the row loop
			// reaches the row, so a window's misses can be hinted
			// ahead of it.
			missed := func(i int) bool {
				return (iter == 0 || e.ps.NeedsRow(i)) && (e.rc == nil || refresh || !e.rc.Peek(int32(i)))
			}
			o := &outs[w]
			delta := e.deltas[w]
			delta.Reset()
			for ti := range e.tasks {
				if e.tasks[ti].worker != w {
					continue
				}
				if firstErr.Load() != nil {
					return
				}
				task := &e.tasks[ti]
				if refresh {
					clear(task.active)
				}
				task.miss = task.miss[:0]
				ahead := task.lo  // the row whose window starts the next hint
				hinted := task.lo // rows before it went to the read-ahead
				before := o.Ctr
				changedBefore := o.Changed
				for i := task.lo; i < task.hi; i++ {
					if i == ahead {
						// Entering a window: hint the misses up to the
						// end of the window two ahead, so their pages
						// stream in while this window is computed.
						end := min(i+3*e.window, task.hi)
						e.src.Prefetch(hinted, end, missed)
						hinted = end
						ahead += e.window
					}
					if iter > 0 && !e.ps.NeedsRow(i) {
						o.Ctr.C1++
						continue
					}
					if refresh {
						task.active[(i-task.lo)/64] |= 1 << ((i - task.lo) % 64)
					}
					var row []float64
					cached := false
					if e.rc != nil && !refresh {
						if vals, ok := e.rc.Get(int32(i)); ok {
							cached = true
							row = vals // nil on the simulated backend (data is resident)
						}
					}
					if !cached && !real {
						task.miss = append(task.miss, int32(i))
					}
					if row == nil {
						var err error
						row, err = cur.Row(i)
						if err != nil {
							firstErr.CompareAndSwap(nil, fmt.Errorf("sem: read row %d: %w", i, err))
							return
						}
					}
					old := e.ps.Assign[i]
					if e.ps.AssignRow(i, row, e.cents, &o.Ctr, dist) {
						o.Changed++
						if old >= 0 {
							delta.Remove(row, int(old))
						}
						delta.Add(row, int(e.ps.Assign[i]))
					}
				}
				task.dists = o.Ctr.DistCalcs - before.DistCalcs
				task.changed = o.Changed - changedBefore
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return kmeans.IterStats{}, err
	}

	return kmeans.TallyStats(outs, e.n), nil
}

// replay charges simulated time and I/O deterministically (simulated
// backend only): tasks run on their owning partition's worker; each
// task's row-cache misses go through SAFS (page cache → device array);
// compute overlaps the asynchronous I/O, so a task finishes at
// max(computeEnd, ioEnd).
func (e *Engine) replay() {
	model := e.cfg.Kmeans.Model
	// Process tasks in earliest-worker order so simulated I/O issue
	// times are monotone — a call-order FIFO on the device resources
	// would otherwise let an eager worker's late-clock request inflate
	// the queue seen by a fresh worker's time-zero request.
	T := e.cfg.Kmeans.Threads
	queues := make([][]*semTask, T)
	for ti := range e.tasks {
		t := &e.tasks[ti]
		queues[t.worker] = append(queues[t.worker], t)
	}
	remaining := 0
	for _, q := range queues {
		if len(q) > 0 {
			remaining++
		}
	}
	for remaining > 0 {
		w := -1
		for i := 0; i < T; i++ {
			if len(queues[i]) == 0 {
				continue
			}
			if w < 0 || e.group.Clock(i).Now() < e.group.Clock(w).Now() {
				w = i
			}
		}
		task := queues[w][0]
		queues[w] = queues[w][1:]
		if len(queues[w]) == 0 {
			remaining--
		}
		clock := e.group.Clock(w)
		ioEnd := e.src.ReadRows(clock.Now(), task.miss)
		clock.Advance(float64(task.dists)*model.DistanceCost(e.d) +
			float64(task.hi-task.lo)*model.RowOverhead +
			float64(task.changed)*float64(2*e.d)*model.FlopTime)
		clock.AdvanceTo(ioEnd) // overlap: end at the later of compute/IO
	}
}

// fillRowCache re-pins this refresh iteration's active rows, visiting
// tasks in index order so the pinned set is deterministic and
// identical across backends (partition caps cut the same prefix
// either way). On the file backend the cache stores the row data —
// refills read through the page cache untracked, since the simulated
// algorithm issues no extra requests for pinning.
func (e *Engine) fillRowCache() error {
	if e.rc == nil {
		return nil
	}
	if !e.src.Real() {
		return e.rc.refill(e.activeRows, nil)
	}
	cur := e.untrackedCursor()
	defer cur.Release()
	return e.rc.refill(e.activeRows, func(r int32) ([]float64, error) {
		row, err := cur.Row(int(r))
		if err != nil {
			return nil, fmt.Errorf("sem: row cache refill row %d: %w", r, err)
		}
		return row, nil
	})
}

// activeRows yields the rows the last refresh pass marked active, in
// ascending order.
func (e *Engine) activeRows(yield func(int32) bool) {
	for ti := range e.tasks {
		t := &e.tasks[ti]
		for w, word := range t.active {
			for word != 0 {
				r := t.lo + w*64 + bits.TrailingZeros64(word)
				if !yield(int32(r)) {
					return
				}
				word &= word - 1
			}
		}
	}
}

func (e *Engine) result() (*kmeans.Result, error) {
	res := &kmeans.Result{
		Centroids:  e.cents,
		Assign:     e.ps.Assign,
		Iters:      e.iter,
		Converged:  e.converged,
		SimSeconds: e.group.Max(),
		PerIter:    e.perIter,
	}
	if e.data != nil {
		res.SSE = kmeans.SSEOf(e.data, e.cents, e.ps.Assign)
	} else {
		sse, err := e.sseStream()
		if err != nil {
			return nil, err
		}
		res.SSE = sse
	}
	if e.src.Real() {
		res.SimSeconds = e.wall
	}
	telLastSSE.Set(res.SSE)
	res.Sizes = make([]int, e.k)
	for _, a := range e.ps.Assign {
		if a >= 0 {
			res.Sizes[a]++
		}
	}
	// SEM memory: O(n) state + per-thread centroids + caches — no nd
	// data term (Table 1's point).
	res.MemoryBytes = kmeans.StateBytes(e.n, e.d, e.k, e.cfg.Kmeans.Threads, e.cfg.Kmeans.Prune) +
		uint64(e.cfg.PageCacheBytes)
	if e.rc != nil {
		res.MemoryBytes += uint64(e.cfg.RowCacheBytes)
	}
	return res, nil
}

// sseStream computes the objective with one untracked pass over the
// backend, accumulating in the same order as kmeans.SSEOf.
func (e *Engine) sseStream() (float64, error) {
	cur := e.untrackedCursor()
	defer cur.Release()
	var sse float64
	for i := 0; i < e.n; i++ {
		row, err := cur.Row(i)
		if err != nil {
			return 0, fmt.Errorf("sem: sse scan row %d: %w", i, err)
		}
		sse += matrix.SqDist(row, e.cents.Row(int(e.ps.Assign[i])))
	}
	return sse, nil
}

// Iter returns the next iteration index (how many have completed).
func (e *Engine) Iter() int { return e.iter }

// SAFS exposes the simulated I/O stack for inspection in tests and
// benches (nil on the file backend).
func (e *Engine) SAFS() *ssd.SAFS { return e.safs }

// Source exposes the storage backend.
func (e *Engine) Source() RowSource { return e.src }

// RC exposes the row cache (nil when disabled).
func (e *Engine) RC() *RowCache { return e.rc }
