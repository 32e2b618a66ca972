package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"knor/internal/blas"
	"knor/internal/kmeans"
	"knor/internal/matrix"
	"knor/internal/telemetry"
)

// ErrOverloaded is wrapped by assignment errors rejected for quota:
// the named model already has ModelQuota in-flight requests. Callers
// should back off and retry (the HTTP layer maps it to 429 with a
// Retry-After hint).
var ErrOverloaded = errors.New("serve: model overloaded")

// Assignment is the answer for one query row.
type Assignment struct {
	Cluster int32   // nearest centroid index
	SqDist  float64 // squared distance to it
	Version int     // model version that answered
}

// BatcherOptions tune the assignment path.
type BatcherOptions struct {
	// Threads is the most goroutines one flush's distance computation
	// splits across, in row stripes (default 1). A flush splits only
	// from 2^20 multiply-adds (m·k·d), below which the split did not
	// pay (blas.SplitThreads).
	Threads int
	// ModelQuota bounds in-flight requests per model (queued or being
	// answered) at the edge; further requests fail fast with an error
	// wrapping ErrOverloaded instead of growing the queue without
	// bound. 0 means unlimited.
	ModelQuota int
	// Tracer samples request traces at the edge (nil = no tracing).
	Tracer *telemetry.Tracer
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

// BatcherStats counts the assignment path's work. Request latency goes
// to the edge's registered histogram instead: knor_serve_request_seconds,
// or knor_shardserve_request_seconds at a fan-out edge.
type BatcherStats struct {
	Requests uint64 // requests answered
	Rows     uint64 // query rows answered
	Flushes  uint64 // blocked distance computations performed
	Rejected uint64 // requests refused by the per-model quota
	Queued   int    // rows waiting for the next flush right now
}

// pendingReq is one waiter: a set of rows against one model, answered
// together.
type pendingReq[T blas.Float] struct {
	model string
	rows  *matrix.Mat[T]
	out   chan batchAnswer
	start time.Time
	trace *telemetry.Trace // nil unless this request was sampled
}

type batchAnswer struct {
	assigns []Assignment
	err     error
	done    time.Time // when the answer was posted
}

// BatcherOf coalesces concurrent assignment requests into one
// ‖v‖²+‖c‖²−2·V·Cᵀ distance computation per flush. Callers block only
// for their own answer; a background flusher drains the queue as soon
// as it is free, taking every request that arrived during the previous
// flush together, so batches grow with offered load without a timer
// on the idle path. All rows of a flush that target the same model are
// answered by a single model snapshot, so a concurrent Publish never
// splits one batch across versions. AssignBatch enters through the
// batcher's Edge; a fan-out's shard batchers answer through AssignRaw.
//
// Both precisions flush one way: one pair of query rows at a time
// against a centroid panel the batcher caches, a column block at a
// time. The element type selects the precision: float64 reproduces the
// pre-generic Batcher exactly; float32 runs the register-tiled float32
// tile against the registry's lazily built float32 centroid mirror —
// half the memory traffic per flush, answers within the relative-error
// bounds documented in EXPERIMENTS.md.
type BatcherOf[T blas.Float] struct {
	reg  *Registry
	opts BatcherOptions
	edge *Edge

	mu      sync.Mutex
	queue   []pendingReq[T]
	queued  int // rows currently queued
	stopped bool

	work chan struct{} // queue went empty -> non-empty
	stop chan struct{}
	done chan struct{}

	flushes telemetry.Counter

	// panel holds the transposed centroids at T, built from panelOf,
	// the last snapshot a flush answered from. Only the flusher
	// goroutine touches them.
	panel   blas.Panel[T]
	panelOf *Model
}

// Batcher is the float64 assignment path.
type Batcher = BatcherOf[float64]

// NewBatcher starts the float64 assignment path over a registry. Close
// it to stop the background flusher.
func NewBatcher(reg *Registry, opts BatcherOptions) *Batcher {
	return NewBatcherOf[float64](reg, opts)
}

// NewBatcherOf starts the assignment path at element type T over a
// registry. Close it to stop the background flusher.
func NewBatcherOf[T blas.Float](reg *Registry, opts BatcherOptions) *BatcherOf[T] {
	b := &BatcherOf[T]{
		reg:  reg,
		opts: opts.withDefaults(),
		edge: NewEdge(opts, telEdge),
		work: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.flusher()
	return b
}

// Assign answers one query row (blocking until its flush completes).
func (b *BatcherOf[T]) Assign(model string, row []T) (Assignment, error) {
	m := matrix.New[T](1, len(row))
	copy(m.Data, row)
	as, err := b.AssignBatch(model, m)
	if err != nil {
		return Assignment{}, err
	}
	return as[0], nil
}

// AssignBatch answers every row of rows against the named model. The
// rows matrix must not be mutated until the call returns. When the
// model already has ModelQuota requests in flight the call fails fast
// with an error wrapping ErrOverloaded — backpressure instead of an
// unbounded queue.
func (b *BatcherOf[T]) AssignBatch(model string, rows *matrix.Mat[T]) ([]Assignment, error) {
	return b.edge.Assign(model, rows.Rows(), func(tr *telemetry.Trace) ([]Assignment, time.Time, error) {
		return b.AssignRaw(model, rows, tr)
	})
}

// AssignRaw answers rows below the edge: no quota, counters, trace
// sampling or clamp, so a shard's raw squared distances reach the
// cross-shard min untouched. A non-nil tr gets the enqueue, coalesce
// and gemm spans; ready is when the answer was posted.
func (b *BatcherOf[T]) AssignRaw(model string, rows *matrix.Mat[T], tr *telemetry.Trace) (as []Assignment, ready time.Time, err error) {
	if rows.Rows() == 0 {
		return nil, time.Time{}, nil
	}
	req := pendingReq[T]{model: model, rows: rows, out: make(chan batchAnswer, 1),
		start: time.Now(), trace: tr}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return nil, time.Time{}, fmt.Errorf("serve: batcher closed")
	}
	wasEmpty := len(b.queue) == 0
	b.queue = append(b.queue, req)
	b.queued += rows.Rows()
	b.mu.Unlock()
	telQueueDepth.Add(float64(rows.Rows()))
	if wasEmpty {
		signal(b.work)
	}
	ans := <-req.out
	return ans.assigns, ans.done, ans.err
}

// AssignRows answers float64 query rows regardless of the batcher's
// element type, converting once when T is narrower. This is the
// precision-independent entry the HTTP server uses (JSON queries decode
// to float64 either way).
func (b *BatcherOf[T]) AssignRows(model string, rows *matrix.Dense) ([]Assignment, error) {
	if m, ok := any(rows).(*matrix.Mat[T]); ok {
		return b.AssignBatch(model, m)
	}
	return b.AssignBatch(model, matrix.Convert[T](rows))
}

// signal performs a non-blocking send on a 1-buffered channel.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Stats reports the batcher's counters and current queue depth.
func (b *BatcherOf[T]) Stats() BatcherStats {
	st := b.edge.Stats()
	st.Flushes = b.flushes.Load()
	b.mu.Lock()
	st.Queued = b.queued
	b.mu.Unlock()
	return st
}

// InFlight snapshots the per-model in-flight request counts (queued or
// being answered right now).
func (b *BatcherOf[T]) InFlight() map[string]int { return b.edge.InFlight() }

// Close rejects new requests, answers everything queued, and stops the
// flusher.
func (b *BatcherOf[T]) Close() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// flusher sleeps until work arrives and drains the queue. On stop it
// drains once more, answering everything still queued, and returns.
func (b *BatcherOf[T]) flusher() {
	defer close(b.done)
	for {
		select {
		case <-b.work:
			b.drain()
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// drain flushes until the queue is empty.
func (b *BatcherOf[T]) drain() {
	for {
		b.mu.Lock()
		batch := b.queue
		taken := b.queued
		b.queue = nil
		b.queued = 0
		b.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		telQueueDepth.Add(-float64(taken))
		telBatchRows.Observe(float64(taken))
		b.flush(batch)
	}
}

// flush groups queued requests by model and answers each group with a
// single GEMM-formulated distance computation against one snapshot.
func (b *BatcherOf[T]) flush(batch []pendingReq[T]) {
	flushStart := time.Now()
	for i := range batch {
		// Traced requests: the enqueue span is arrival → flush pickup
		// (time queued behind the previous flush).
		batch[i].trace.Span("enqueue", batch[i].start, flushStart)
	}
	groups := map[string][]int{}
	for i, r := range batch {
		groups[r.model] = append(groups[r.model], i)
	}
	for model, idxs := range groups {
		snap, ok := b.reg.Get(model)
		if !ok {
			for _, i := range idxs {
				batch[i].out <- batchAnswer{err: fmt.Errorf("serve: unknown model %q", model)}
			}
			continue
		}
		d := snap.Dims()
		// Answer dim-mismatched requests with errors; pack the rest
		// into one contiguous m×d block.
		live := idxs[:0]
		total := 0
		for _, i := range idxs {
			if batch[i].rows.Cols() != d {
				batch[i].out <- batchAnswer{err: fmt.Errorf(
					"serve: model %q dims %d, query dims %d", model, d, batch[i].rows.Cols())}
				continue
			}
			live = append(live, i)
			total += batch[i].rows.Rows()
		}
		if total == 0 {
			continue
		}
		// A lone request is already one contiguous row block: scan it
		// in place instead of packing a copy.
		a := batch[live[0]].rows.Data
		if len(live) > 1 {
			a = make([]T, total*d)
			off := 0
			for _, i := range live {
				copy(a[off:], batch[i].rows.Data)
				off += len(batch[i].rows.Data)
			}
		}
		gemmStart := time.Now()
		assigns := b.assignBlock(a, total, snap)
		gemmEnd := time.Now()
		telGemmSeconds.Observe(gemmEnd.Sub(gemmStart).Seconds())
		row := 0
		for _, i := range live {
			if batch[i].trace != nil {
				batch[i].trace.Span("coalesce", flushStart, gemmStart)
				batch[i].trace.Span("gemm", gemmStart, gemmEnd)
			}
			n := batch[i].rows.Rows()
			batch[i].out <- batchAnswer{assigns: assigns[row : row+n : row+n], done: gemmEnd}
			row += n
		}
	}
	b.flushes.Inc()
	telFlushes.Inc()
}

// assignBlock computes nearest centroids for an m×d row block via the
// ‖v‖² + ‖c‖² − 2·V·Cᵀ identity without the m×k distance block:
// blas.NearestRows runs each pair of rows against the batcher's
// centroid panel, built from the snapshot's centroids and cached ‖c‖²
// at the block's element type, and rebuilt in place only when a flush
// names another snapshot than the last one. Distances are raw:
// cancellation can leave them slightly negative, and the edge clamps
// them once.
func (b *BatcherOf[T]) assignBlock(a []T, m int, snap *Model) []Assignment {
	cents, normsSq := centroidsOf[T](snap)
	if b.panelOf != snap {
		b.panel.Build(cents.Data, snap.K(), snap.Dims())
		b.panelOf = snap
	}
	best, idx := make([]T, m), make([]int32, m)
	blas.NearestRows(a, m, &b.panel, normsSq, best, idx, b.opts.Threads)
	out := make([]Assignment, m)
	for i, v := range best {
		out[i] = Assignment{Cluster: idx[i], SqDist: float64(v), Version: snap.Version}
	}
	return out
}

// Assigner is the precision-independent view of a batcher: what the
// HTTP server programs against so -precision only changes construction.
type Assigner interface {
	// AssignRows answers float64 query rows against the named model.
	AssignRows(model string, rows *matrix.Dense) ([]Assignment, error)
	// Stats reports counters and latency quantiles.
	Stats() BatcherStats
	// InFlight snapshots the per-model in-flight request counts.
	InFlight() map[string]int
	// Close rejects new requests, answers everything queued, and stops
	// the flusher.
	Close()
}

// NewAssigner builds the batched assignment path at the requested
// precision.
func NewAssigner(reg *Registry, opts BatcherOptions, p kmeans.Precision) Assigner {
	if p == kmeans.Precision32 {
		return NewBatcherOf[float32](reg, opts)
	}
	return NewBatcherOf[float64](reg, opts)
}
